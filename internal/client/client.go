// Package client implements the µPnP Client: software that remotely
// discovers and uses peripherals hosted by µPnP Things (Section 5). Clients
// may run on embedded devices or standard computers; this implementation
// drives the simulated network.
//
// Every request is tracked in a pending-request table with a virtual-time
// deadline: replies complete the request, lost replies expire it with
// ErrTimeout, and nothing leaks. Completion is callback-based and every
// callback fires exactly once, off the network's clock — under the realtime
// clock that means a pool worker's goroutine — so the public SDK in the
// repository root can wrap this layer in synchronous, context-aware calls
// that block on channels. All Client methods are safe for concurrent use.
//
// An optional RetryPolicy adds an ARQ layer: unanswered unicast reads and
// writes are retransmitted with doubling, jittered backoff inside the
// request's deadline (the paper defers unreliable-network handling; this is
// the reproduction's extension).
package client

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
	"micropnp/internal/reqerr"
)

// DefaultTimeout bounds a request when the caller passes no explicit
// timeout (see reqerr.DefaultTimeout).
const DefaultTimeout = reqerr.DefaultTimeout

// Request errors, shared with the manager via internal/reqerr. ErrTimeout
// matches errors.Is(err, context.DeadlineExceeded).
var (
	ErrTimeout         = reqerr.ErrTimeout
	ErrNoPeripheral    = reqerr.ErrNoPeripheral
	ErrWriteRejected   = reqerr.ErrWriteRejected
	ErrRemovalRejected = reqerr.ErrRemovalRejected
)

// Advert is one peripheral sighting: a Thing's advertisement of a connected
// peripheral.
type Advert struct {
	Thing      netip.Addr
	Peripheral proto.PeripheralInfo
	// Solicited distinguishes discovery replies from unsolicited
	// advertisements.
	Solicited bool
	// At is the virtual time the advertisement arrived.
	At time.Duration
}

type pendingKind uint8

const (
	pendingRead pendingKind = iota
	pendingWrite
	pendingDiscover
)

// pending is one in-flight request. Exactly one of the completion paths
// fires: the matching reply, or the deadline expiry scheduled at send time.
//
// Entries are pooled: the completion/expiry/retract path that removes the
// entry from the table releases it back to pendingPool. gen survives
// recycling and is bumped on every release (under Client.mu), so a stale
// handle — an expiry event or retract that captured the entry before it was
// recycled into a newer request — fails its generation check and becomes a
// no-op even when the pool hands back the same entry at the same sequence
// number (the identity check alone cannot catch that ABA).
type pending struct {
	kind pendingKind
	// thing and id identify the peer and peripheral a read was addressed
	// to: a data message only completes the read when both match (stream
	// data multicast on a shared group may carry a colliding sequence
	// number chosen by another client).
	thing      netip.Addr
	id         hw.DeviceID
	onRead     func([]int32, error)
	onWrite    func(error)
	onDiscover func([]Advert)
	adverts    []Advert
	// scratch, when hasScratch is set, is the caller-provided value buffer a
	// read reply is parsed into (appended to scratch[:0]) instead of a fresh
	// allocation — see ReadInto. The callback's values then alias the scratch
	// and are only valid until the next request reusing it.
	scratch    []int32
	hasScratch bool
	// expiry retracts the typed deadline event once a reply completed the
	// request, so finished requests leave no dead deadline in the queue.
	expiry netsim.ExpiryRef
	// cancelRetx retracts the pending retransmission (RetryPolicy) when the
	// request completes or expires. Guarded by Client.mu.
	cancelRetx func()
	// gen guards pooled reuse (see above). Written only under Client.mu.
	gen uint64
}

var pendingPool = sync.Pool{New: func() any { return new(pending) }}

// release recycles a pending entry after its terminal path ran. The caller
// must have removed it from c.pending and fired its callback already; no
// other goroutine may touch the entry's non-gen fields once it left the
// table.
func (c *Client) release(p *pending) {
	c.mu.Lock()
	p.gen++
	c.mu.Unlock()
	p.kind = 0
	p.thing = netip.Addr{}
	p.id = 0
	p.onRead, p.onWrite, p.onDiscover = nil, nil, nil
	p.adverts = nil // handed to the callback, possibly retained: do not reuse
	p.scratch, p.hasScratch = nil, false
	p.expiry = netsim.ExpiryRef{}
	p.cancelRetx = nil
	pendingPool.Put(p)
}

// RetryPolicy enables automatic retransmission of unanswered unicast
// requests (reads and writes): when no reply arrived BaseBackoff after a
// transmission, the request is retransmitted, up to Attempts extra
// transmissions with doubling backoff and ±50% jitter. The request's
// overall deadline is unchanged — retries happen inside it, and the request
// still expires with ErrTimeout when every transmission goes unanswered.
// Multicast discoveries are never retransmitted (their window closing is
// completion, not failure), nor are stream subscriptions.
type RetryPolicy struct {
	// Attempts is the maximum number of retransmissions after the first
	// send (0 disables retries).
	Attempts int
	// BaseBackoff is the delay before the first retransmission; attempt k
	// waits BaseBackoff<<(k-1), capped at 32*BaseBackoff and jittered by a
	// factor in [0.5, 1.5).
	BaseBackoff time.Duration
}

// maxBackoffShift caps the exponential backoff at BaseBackoff<<5 (32x) so
// long retry budgets spread transmissions across the deadline instead of
// pushing the tail attempts past it.
const maxBackoffShift = 5

func (p RetryPolicy) enabled() bool { return p.Attempts > 0 && p.BaseBackoff > 0 }

// Client is one µPnP client instance.
type Client struct {
	net     *netsim.Network
	node    *netsim.Node
	prefix  netsim.NetworkPrefix
	timeout time.Duration
	retry   RetryPolicy

	mu             sync.Mutex
	retryRng       *rand.Rand // backoff jitter; guarded by mu
	seq            uint16
	adverts        []Advert
	pending        map[uint16]*pending
	streams        map[hw.DeviceID][]*Stream
	pendingStreams map[uint16]*Stream
	units          map[hw.DeviceID]string
	onAdvert       func(Advert)
	advertHooks    []func(Advert)

	// sendHook, when set, runs at the start of every send (see SetSendHook).
	sendHook func()
}

// Config configures a client.
type Config struct {
	Network *netsim.Network
	Addr    netip.Addr
	Parent  *netsim.Node
	// DefaultTimeout bounds requests made without an explicit timeout
	// (zero = DefaultTimeout).
	DefaultTimeout time.Duration
	// Retry enables automatic retransmission of unanswered unicast reads
	// and writes (zero value disables).
	Retry RetryPolicy
}

// New builds and registers a client. Clients join the all-clients multicast
// group of their network prefix by default (Figure 11), so unsolicited
// advertisements reach them.
func New(cfg Config) (*Client, error) {
	node, err := cfg.Network.AddNode(cfg.Addr, cfg.Parent)
	if err != nil {
		return nil, err
	}
	timeout := cfg.DefaultTimeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	// The jitter stream is seeded per client (from its address), so
	// co-deployed clients desynchronize their retransmissions instead of
	// retrying in lockstep, while each client stays deterministic.
	a16 := cfg.Addr.As16()
	var jitterSeed int64 = 0x6031
	for _, b := range a16 {
		jitterSeed = jitterSeed*131 + int64(b)
	}
	c := &Client{
		net:            cfg.Network,
		node:           node,
		prefix:         netsim.PrefixFromAddr(cfg.Addr),
		timeout:        timeout,
		retry:          cfg.Retry,
		retryRng:       rand.New(rand.NewSource(jitterSeed)),
		pending:        map[uint16]*pending{},
		streams:        map[hw.DeviceID][]*Stream{},
		pendingStreams: map[uint16]*Stream{},
		units:          map[hw.DeviceID]string{},
	}
	node.JoinGroup(netsim.AllClientsAddr(c.prefix))
	node.Bind(netsim.Port6030, c.handle)
	return c, nil
}

// Addr returns the client's unicast address.
func (c *Client) Addr() netip.Addr { return c.node.Addr() }

// Node exposes the network node.
func (c *Client) Node() *netsim.Node { return c.node }

// Adverts returns every advertisement observed so far.
func (c *Client) Adverts() []Advert {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Advert(nil), c.adverts...)
}

// OnAdvert registers the callback for incoming advertisements, replacing any
// previous one (the original single-listener surface).
func (c *Client) OnAdvert(fn func(Advert)) {
	c.mu.Lock()
	c.onAdvert = fn
	c.mu.Unlock()
}

// AddAdvertHook registers an additional advertisement listener. Unlike
// OnAdvert it composes: every hook fires for every advert, alongside the
// OnAdvert callback, so independent consumers (a catalog, an application
// callback) can observe the advert flow without clobbering each other.
// Hooks cannot be removed; they live as long as the client.
func (c *Client) AddAdvertHook(fn func(Advert)) {
	if fn == nil {
		return
	}
	c.mu.Lock()
	c.advertHooks = append(c.advertHooks, fn)
	c.mu.Unlock()
}

// Units returns the unit string a peripheral type advertised, or "".
func (c *Client) Units(id hw.DeviceID) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.units[id]
}

// Things returns the distinct Things that advertised a given peripheral
// type (hw.DeviceIDAllPeripherals matches any type).
func (c *Client) Things(id hw.DeviceID) []netip.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[netip.Addr]bool{}
	var out []netip.Addr
	for _, a := range c.adverts {
		if id != hw.DeviceIDAllPeripherals && a.Peripheral.ID != id {
			continue
		}
		if !seen[a.Thing] {
			seen[a.Thing] = true
			out = append(out, a.Thing)
		}
	}
	return out
}

// nextSeqLocked allocates the next sequence number, skipping values still
// bound to an in-flight request or a live stream (Things tag stream data
// with the subscribe seq), so a 2^16 wrap cannot alias two requests.
func (c *Client) nextSeqLocked() uint16 {
	for {
		c.seq++
		if c.seq == 0 {
			continue
		}
		if _, busy := c.pending[c.seq]; busy {
			continue
		}
		if _, busy := c.pendingStreams[c.seq]; busy {
			continue
		}
		if c.streamSeqBusyLocked(c.seq) {
			continue
		}
		return c.seq
	}
}

// streamSeqBusyLocked reports whether an established, still-open stream
// holds the sequence number (c.mu held).
func (c *Client) streamSeqBusyLocked(seq uint16) bool {
	for _, list := range c.streams {
		for _, s := range list {
			s.mu.Lock()
			busy := s.seq == seq && !s.closed
			s.mu.Unlock()
			if busy {
				return true
			}
		}
	}
	return false
}

func (c *Client) timeoutOr(t time.Duration) time.Duration {
	if t <= 0 {
		return c.timeout
	}
	return t
}

// register inserts a pending request and arms its expiry as a typed clock
// event (netsim.Expirer) — no closure, no allocation. It returns the
// sequence number and the entry's generation; both are packed into the
// event's seq cookie and checked on firing, so neither a recycled sequence
// number nor a recycled pool entry can expire a newer request.
func (c *Client) register(p *pending, timeout time.Duration) (uint16, uint64) {
	c.mu.Lock()
	seq := c.nextSeqLocked()
	gen := p.gen
	c.pending[seq] = p
	c.mu.Unlock()
	ref := c.node.ScheduleExpiry(c.timeoutOr(timeout), c, uint64(seq)|gen<<16, p)
	c.mu.Lock()
	if cur, ok := c.pending[seq]; ok && cur == p && p.gen == gen {
		p.expiry = ref
		c.mu.Unlock()
		return seq, gen
	}
	c.mu.Unlock()
	// The request already terminated (possible under the realtime clock when
	// the deadline fires between scheduling and this registration): the ref
	// is orphaned — cancelling the already-fired event is a no-op.
	ref.Cancel()
	return seq, gen
}

// ExpireEvent implements netsim.Expirer: the typed deadline of a pending
// request. seqgen packs the sequence number (low 16 bits) and the pooled
// entry's generation (upper bits).
func (c *Client) ExpireEvent(seqgen uint64, tok any) {
	p := tok.(*pending)
	seq := uint16(seqgen)
	gen := seqgen >> 16
	c.mu.Lock()
	cur, ok := c.pending[seq]
	if !ok || cur != p || p.gen != gen {
		c.mu.Unlock()
		return
	}
	delete(c.pending, seq)
	adverts := p.adverts
	cancelRetx := p.cancelRetx
	c.mu.Unlock()
	if cancelRetx != nil {
		cancelRetx()
	}
	switch p.kind {
	case pendingRead:
		if p.onRead != nil {
			p.onRead(nil, ErrTimeout)
		}
	case pendingWrite:
		if p.onWrite != nil {
			p.onWrite(ErrTimeout)
		}
	case pendingDiscover:
		// A discovery window closing is completion, not failure: deliver
		// whatever arrived.
		if p.onDiscover != nil {
			p.onDiscover(adverts)
		}
	}
	c.release(p)
}

// send encodes into a pooled buffer and hands it to the network (zero-copy,
// zero-allocation in steady state). Deliberately duplicated across client,
// manager and thing rather than shared behind an interface — see the note in
// netsim/packet.go.
func (c *Client) send(dst netip.Addr, m *proto.Message) {
	if c.sendHook != nil {
		c.sendHook()
	}
	pb := netsim.AcquireBuf()
	b, err := m.AppendEncode(pb.B[:0])
	if err != nil {
		pb.Release()
		return
	}
	pb.B = b
	c.node.SendBuf(dst, netsim.Port6030, pb)
}

// SetSendHook installs fn to run at the start of every datagram the client
// sends: for a request, after it registered and armed its expiry and before
// the datagram reaches the network. Tests use it to force interleavings at
// that seam. Install it before the client's traffic starts; nil removes it.
func (c *Client) SetSendHook(fn func()) { c.sendHook = fn }

// Pending returns the number of in-flight requests (reads, writes and
// discoveries awaiting completion). Streams pending establishment are not
// counted.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// retract withdraws an in-flight request without firing its callback: the
// pending entry is removed and its expiry and retransmission events are
// cancelled. Used by the SDK when the caller's context is done — the caller
// has already returned, so neither a late reply nor the deadline may complete
// the request. Retracting an already-completed request is a no-op.
func (c *Client) retract(seq uint16, gen uint64, p *pending) {
	c.mu.Lock()
	cur, ok := c.pending[seq]
	if !ok || cur != p || p.gen != gen {
		c.mu.Unlock()
		return
	}
	delete(c.pending, seq)
	ref, cancelRetx := p.expiry, p.cancelRetx
	c.mu.Unlock()
	ref.Cancel()
	if cancelRetx != nil {
		cancelRetx()
	}
	c.release(p)
}

// noRetract is returned for fire-and-forget requests with nothing to
// withdraw.
func noRetract() {}

// Discover multicasts a peripheral discovery (message 2) to the group of
// Things serving the given peripheral type. When done is non-nil it fires
// once the discovery window (timeout, 0 = the default) closes, with every
// solicited advertisement the request gathered; a nil done is
// fire-and-forget — observe results via Adverts/Things/OnAdvert. The
// returned retract withdraws the request without firing done (see retract).
func (c *Client) Discover(id hw.DeviceID, timeout time.Duration, done func([]Advert), filter ...proto.TLV) (retract func()) {
	return c.discoverGroup(netsim.MulticastAddr(c.prefix, id), timeout, done, filter)
}

// DiscoverClass discovers any peripheral of a device class, regardless of
// vendor or product — the Section 9 hierarchical-typing extension. Only
// Things running with the structured namespace respond.
func (c *Client) DiscoverClass(class uint8, timeout time.Duration, done func([]Advert), filter ...proto.TLV) (retract func()) {
	return c.Discover(hw.ClassWildcard(class), timeout, done, filter...)
}

// DiscoverInZone discovers a peripheral type within a location zone — the
// Section 9 location-aware multicast extension. Only Things placed in the
// zone receive the discovery.
func (c *Client) DiscoverInZone(zone uint16, id hw.DeviceID, timeout time.Duration, done func([]Advert), filter ...proto.TLV) (retract func()) {
	return c.discoverGroup(netsim.MulticastAddrZone(c.prefix, zone, id), timeout, done, filter)
}

func (c *Client) discoverGroup(group netip.Addr, timeout time.Duration, done func([]Advert), filter []proto.TLV) (retract func()) {
	var seq uint16
	retract = noRetract
	if done != nil {
		p := pendingPool.Get().(*pending)
		p.kind, p.onDiscover = pendingDiscover, done
		var gen uint64
		seq, gen = c.register(p, timeout)
		retract = func() { c.retract(seq, gen, p) }
	} else {
		c.mu.Lock()
		seq = c.nextSeqLocked()
		c.mu.Unlock()
	}
	c.send(group, &proto.Message{Type: proto.MsgDiscovery, Seq: seq, Filter: filter})
	return retract
}

// Read requests a single value from a peripheral (messages 10/11). The
// callback fires exactly once: with the decoded values, or with an error —
// ErrTimeout when no reply arrives within the timeout (0 = the default),
// ErrNoPeripheral when the Thing serves no such device, or a decode error
// for a malformed reply. With a RetryPolicy configured, unanswered requests
// are retransmitted with backoff inside the deadline. The returned retract
// withdraws the request without firing cb (see retract).
func (c *Client) Read(thing netip.Addr, id hw.DeviceID, timeout time.Duration, cb func([]int32, error)) (retract func()) {
	return c.read(thing, id, nil, false, timeout, cb)
}

// ReadInto is Read with a caller-provided scratch buffer: the reply's values
// are parsed by appending into scratch[:0] (growing it only when capacity is
// short) instead of allocating a fresh slice, so a caller that recycles the
// values handed to its callback as the next call's scratch performs
// steady-state reads without the per-read value allocation. The values
// passed to cb alias the scratch: they are valid only until the caller
// reuses it, and must be copied to be retained. One outstanding request per
// scratch buffer — issuing a second ReadInto with the same scratch before
// the first callback fired would let the two replies race on the buffer.
func (c *Client) ReadInto(thing netip.Addr, id hw.DeviceID, scratch []int32, timeout time.Duration, cb func([]int32, error)) (retract func()) {
	return c.read(thing, id, scratch, true, timeout, cb)
}

func (c *Client) read(thing netip.Addr, id hw.DeviceID, scratch []int32, hasScratch bool, timeout time.Duration, cb func([]int32, error)) (retract func()) {
	var seq uint16
	var gen uint64
	var p *pending
	retract = noRetract
	if cb != nil {
		p = pendingPool.Get().(*pending)
		p.kind, p.thing, p.id = pendingRead, thing, id
		p.onRead, p.scratch, p.hasScratch = cb, scratch, hasScratch
		seq, gen = c.register(p, timeout)
		retract = func() { c.retract(seq, gen, p) }
	} else {
		c.mu.Lock()
		seq = c.nextSeqLocked()
		c.mu.Unlock()
	}
	// Two message paths, two variables: the retransmit arm retains its
	// message, so sharing one variable across both branches would force the
	// no-retry message onto the heap too. Kept separate, the hot no-retry
	// send stack-allocates.
	if p != nil && c.retry.enabled() {
		m := &proto.Message{Type: proto.MsgRead, Seq: seq, DeviceID: id}
		c.send(thing, m)
		c.armRetransmit(seq, gen, p, thing, m, 1)
	} else {
		m := proto.Message{Type: proto.MsgRead, Seq: seq, DeviceID: id}
		c.send(thing, &m)
	}
	return retract
}

// Write sends a value to a peripheral, e.g. an actuator (messages 16/17).
// The callback fires exactly once with nil on acknowledgement, ErrTimeout
// on expiry, or ErrWriteRejected on a negative acknowledgement. With a
// RetryPolicy configured, unanswered requests are retransmitted with
// backoff inside the deadline. Writes are assumed idempotent at the Thing
// (the driver re-applies the same values); callers for whom duplicate
// application matters should not enable retries. The returned retract
// withdraws the request without firing cb (see retract).
func (c *Client) Write(thing netip.Addr, id hw.DeviceID, vals []int32, timeout time.Duration, cb func(error)) (retract func()) {
	var seq uint16
	var gen uint64
	var p *pending
	retract = noRetract
	if cb != nil {
		p = pendingPool.Get().(*pending)
		p.kind, p.onWrite = pendingWrite, cb
		seq, gen = c.register(p, timeout)
		retract = func() { c.retract(seq, gen, p) }
	} else {
		c.mu.Lock()
		seq = c.nextSeqLocked()
		c.mu.Unlock()
	}
	if p != nil && c.retry.enabled() {
		m := &proto.Message{Type: proto.MsgWrite, Seq: seq, DeviceID: id, Data: proto.Values32(vals)}
		c.send(thing, m)
		c.armRetransmit(seq, gen, p, thing, m, 1)
	} else {
		m := proto.Message{Type: proto.MsgWrite, Seq: seq, DeviceID: id, Data: proto.Values32(vals)}
		c.send(thing, &m)
	}
	return retract
}

// armRetransmit schedules the attempt-th retransmission of an unanswered
// unicast request: attempt k fires BaseBackoff<<(k-1) (jittered ±50%) after
// the previous transmission, resends the identical datagram — same sequence
// number, so a late reply to any transmission completes the request — and
// arms the next attempt. Completion and expiry retract the pending
// retransmission through pending.cancelRetx.
func (c *Client) armRetransmit(seq uint16, gen uint64, p *pending, dst netip.Addr, m *proto.Message, attempt int) {
	if p == nil || !c.retry.enabled() || attempt > c.retry.Attempts {
		return
	}
	shift := attempt - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	base := c.retry.BaseBackoff << shift
	c.mu.Lock()
	jitter := 0.5 + c.retryRng.Float64()
	c.mu.Unlock()
	delay := time.Duration(float64(base) * jitter)
	cancel := c.node.ScheduleCancelable(delay, func() {
		c.mu.Lock()
		cur, ok := c.pending[seq]
		if !ok || cur != p || p.gen != gen {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		c.send(dst, m)
		c.armRetransmit(seq, gen, p, dst, m, attempt+1)
	})
	c.mu.Lock()
	if cur, ok := c.pending[seq]; ok && cur == p && p.gen == gen {
		p.cancelRetx = cancel
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// The request completed between scheduling and registration (possible
	// under the realtime clock): retract the orphaned retransmission.
	cancel()
}

// ---------------------------------------------------------------------------
// Streams

// Stream is one subscription handle to a peripheral's value stream
// (messages 12–15). Handles replace the former per-DeviceID callback map:
// several subscriptions to the same peripheral type coexist, and each is
// closed independently.
type Stream struct {
	c     *Client
	thing netip.Addr
	id    hw.DeviceID
	// seq is the subscribe sequence number; the Thing tags the stream's
	// data messages with it, so it stays reserved while the stream lives.
	seq uint16

	mu          sync.Mutex
	group       netip.Addr
	established bool
	closed      bool
	onData      func([]int32)
	onClosed    func()
	// onEstablishedHook fires once on establishment; cleared afterwards.
	onEstablishedHook func(error)
	// cancelExpiry retracts the establishment deadline once established.
	cancelExpiry func()
}

// SubscribeOptions configures a stream subscription.
type SubscribeOptions struct {
	// Timeout bounds stream establishment (0 = the client default).
	Timeout time.Duration
	// OnData receives each decoded data message.
	OnData func([]int32)
	// OnClosed fires when the Thing closes the stream.
	OnClosed func()
	// OnEstablished fires once: with nil when the Thing answered with the
	// stream's multicast group, or with ErrTimeout on expiry.
	OnEstablished func(error)
}

// DeviceID returns the peripheral type the stream serves.
func (s *Stream) DeviceID() hw.DeviceID { return s.id }

// Established reports whether the Thing acknowledged the subscription.
func (s *Stream) Established() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.established
}

// Closed reports whether the stream ended (Thing-side close or local Close).
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close unsubscribes locally: the handle stops receiving data and the node
// leaves the stream's multicast group once no other handle needs it. The
// Thing keeps streaming for other subscribers until it closes the stream.
func (s *Stream) Close() {
	s.c.closeStream(s, false)
}

// Subscribe requests a peripheral's value stream from a Thing. The Thing
// replies with the multicast group to join; data then arrives on the group
// until the Thing closes the stream or the handle is Closed.
func (c *Client) Subscribe(thing netip.Addr, id hw.DeviceID, opts SubscribeOptions) *Stream {
	s := &Stream{c: c, thing: thing, id: id, onData: opts.OnData, onClosed: opts.OnClosed,
		onEstablishedHook: opts.OnEstablished}
	c.mu.Lock()
	seq := c.nextSeqLocked()
	s.seq = seq
	c.pendingStreams[seq] = s
	c.mu.Unlock()
	onEst := opts.OnEstablished
	cancel := c.node.ScheduleCancelable(c.timeoutOr(opts.Timeout), func() {
		c.mu.Lock()
		cur, ok := c.pendingStreams[seq]
		if !ok || cur != s {
			c.mu.Unlock()
			return
		}
		delete(c.pendingStreams, seq)
		c.mu.Unlock()
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		if onEst != nil {
			onEst(ErrTimeout)
		}
	})
	s.mu.Lock()
	s.cancelExpiry = cancel
	s.mu.Unlock()
	c.send(thing, &proto.Message{Type: proto.MsgStream, Seq: seq, DeviceID: id})
	return s
}

// closeStream detaches a handle; thingClosed distinguishes the Thing's close
// message (which fires OnClosed) from a local Close.
func (c *Client) closeStream(s *Stream, thingClosed bool) {
	c.mu.Lock()
	list := c.streams[s.id]
	idx := -1
	for i, x := range list {
		if x == s {
			idx = i
			break
		}
	}
	if idx >= 0 {
		c.streams[s.id] = append(list[:idx:idx], list[idx+1:]...)
	}
	// Also drop a not-yet-established handle from the pending table.
	for seq, x := range c.pendingStreams {
		if x == s {
			delete(c.pendingStreams, seq)
		}
	}
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	group := s.group
	joined := s.established
	onClosed := s.onClosed
	cancel := s.cancelExpiry
	s.cancelExpiry = nil
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	leave := joined && group.IsValid() && !c.groupStillNeededLocked(group)
	c.mu.Unlock()
	if leave {
		c.node.LeaveGroup(group)
	}
	if thingClosed && !alreadyClosed && onClosed != nil {
		onClosed()
	}
}

// groupStillNeededLocked reports whether any live established stream still
// listens on the group (c.mu held).
func (c *Client) groupStillNeededLocked(group netip.Addr) bool {
	for _, list := range c.streams {
		for _, s := range list {
			s.mu.Lock()
			need := s.established && !s.closed && s.group == group
			s.mu.Unlock()
			if need {
				return true
			}
		}
	}
	return false
}

// handle processes incoming protocol messages. Decoding borrows a pooled
// Decoder — the decoded message (and msg.Payload it aliases) is valid only
// within this call, so anything retained (adverts) is cloned.
func (c *Client) handle(msg netsim.Message) {
	dec := proto.AcquireDecoder()
	defer proto.ReleaseDecoder(dec)
	m, err := dec.Decode(msg.Payload)
	if err != nil {
		return
	}
	switch m.Type {
	case proto.MsgUnsolicitedAdvert, proto.MsgSolicitedAdvert:
		c.handleAdvert(msg, m)

	case proto.MsgData:
		// Read replies are unicast from the addressed Thing for the
		// requested peripheral; anything else with a matching sequence
		// number (stream data on a shared multicast group, where another
		// client chose the number) must not complete a pending read.
		c.mu.Lock()
		if p, ok := c.pending[m.Seq]; ok && p.kind == pendingRead &&
			!msg.Dst.IsMulticast() && msg.Src == p.thing && m.DeviceID == p.id {
			delete(c.pending, m.Seq)
			ref, cancelRetx := p.expiry, p.cancelRetx
			c.mu.Unlock()
			ref.Cancel()
			if cancelRetx != nil {
				cancelRetx()
			}
			c.completeRead(p, m)
			c.release(p)
			return
		}
		c.mu.Unlock()
		// Stream data arrives on the multicast group; a unicast data
		// message that matched no pending read (e.g. a reply landing after
		// its expiry) must not masquerade as stream data.
		if msg.Dst.IsMulticast() {
			c.routeStreamData(msg.Src, m)
		}

	case proto.MsgWriteAck:
		c.mu.Lock()
		p, ok := c.pending[m.Seq]
		var ref netsim.ExpiryRef
		var cancelRetx func()
		if ok && p.kind == pendingWrite {
			delete(c.pending, m.Seq)
			ref, cancelRetx = p.expiry, p.cancelRetx
		}
		c.mu.Unlock()
		if ok && p.kind == pendingWrite {
			ref.Cancel()
			if cancelRetx != nil {
				cancelRetx()
			}
			if p.onWrite != nil {
				if m.Status == 0 {
					p.onWrite(nil)
				} else {
					p.onWrite(ErrWriteRejected)
				}
			}
			c.release(p)
		}

	case proto.MsgEstablished:
		group, okAddr := netip.AddrFromSlice(m.Group[:])
		if !okAddr {
			return
		}
		c.mu.Lock()
		s, ok := c.pendingStreams[m.Seq]
		if ok {
			delete(c.pendingStreams, m.Seq)
			c.streams[s.id] = append(c.streams[s.id], s)
		}
		c.mu.Unlock()
		if !ok {
			return
		}
		s.mu.Lock()
		s.group = group
		s.established = true
		onEst := s.onEstablishedHook
		s.onEstablishedHook = nil
		cancel := s.cancelExpiry
		s.cancelExpiry = nil
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		c.node.JoinGroup(group)
		if onEst != nil {
			onEst(nil)
		}

	case proto.MsgClosed:
		// Close only the subscriptions served by the closing Thing: several
		// Things may stream the same peripheral type over the shared group,
		// and one closing must not tear down the others' handles.
		c.mu.Lock()
		var subs []*Stream
		for _, s := range c.streams[m.DeviceID] {
			if s.thing == msg.Src {
				subs = append(subs, s)
			}
		}
		c.mu.Unlock()
		for _, s := range subs {
			c.closeStream(s, true)
		}
	}
}

// routeStreamData delivers group data to the live subscriptions of the
// peripheral type served by the sending Thing. The group is shared per
// device type, so data from other Things streaming the same type arrives
// here too and must not be misattributed to this handle's Thing.
func (c *Client) routeStreamData(src netip.Addr, m *proto.Message) {
	c.mu.Lock()
	var subs []*Stream
	for _, s := range c.streams[m.DeviceID] {
		if s.thing == src {
			subs = append(subs, s)
		}
	}
	c.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	vals, err := proto.ParseValues32(m.Data)
	if err != nil {
		return
	}
	for _, s := range subs {
		s.mu.Lock()
		cb := s.onData
		dead := s.closed
		s.mu.Unlock()
		if !dead && cb != nil {
			cb(vals)
		}
	}
}

// completeRead decodes a data reply and fires the read callback.
func (c *Client) completeRead(p *pending, m *proto.Message) {
	if p.onRead == nil {
		return
	}
	if len(m.Data) == 0 {
		// The Thing's empty reply signals the peripheral's absence.
		p.onRead(nil, ErrNoPeripheral)
		return
	}
	var (
		vals []int32
		err  error
	)
	if p.hasScratch {
		vals, err = proto.AppendParseValues32(p.scratch[:0], m.Data)
	} else {
		vals, err = proto.ParseValues32(m.Data)
	}
	if err != nil {
		p.onRead(nil, fmt.Errorf("micropnp: malformed data reply: %w", err))
		return
	}
	p.onRead(vals, nil)
}

// handleAdvert records advertisements, captures advertised units, routes
// solicited replies to their discovery collector, and fires OnAdvert.
func (c *Client) handleAdvert(msg netsim.Message, m *proto.Message) {
	solicited := m.Type == proto.MsgSolicitedAdvert
	c.mu.Lock()
	cb := c.onAdvert
	hooks := c.advertHooks
	var fired []Advert
	for _, p := range m.Peripherals {
		// Clone: the decoded TLVs alias the datagram buffer, which the
		// network recycles after this handler returns, while adverts are
		// retained indefinitely.
		a := Advert{Thing: msg.Src, Peripheral: p.Clone(), Solicited: solicited, At: c.node.Now()}
		c.adverts = append(c.adverts, a)
		if u, ok := p.TLVString(proto.TLVUnits); ok {
			c.units[p.ID] = u
		}
		if solicited {
			if pd, ok := c.pending[m.Seq]; ok && pd.kind == pendingDiscover {
				pd.adverts = append(pd.adverts, a)
			}
		}
		fired = append(fired, a)
	}
	c.mu.Unlock()
	for _, a := range fired {
		if cb != nil {
			cb(a)
		}
		for _, hook := range hooks {
			hook(a)
		}
	}
}
