package netsim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ShardedClock is the zone-parallel virtual clock: a conservative
// parallel discrete-event simulator (PDES) over the network's address zones.
// Every zone (lane) owns its own event heap, lane-local virtual time and lock
// domain; lanes advance together through barrier-synchronized windows, inside
// which each lane's events execute independently — in parallel on a
// persistent worker pool, or sequentially in lane order when Workers is 1.
//
// The lookahead argument: every cross-zone interaction is a packet delivery,
// and one hop costs at least PacketDelay of the smallest datagram, which even
// after the worst downward jitter excursion exceeds
// Quantum = ProcPerPacket × (1 − jitter). A delivery crossing from lane j to
// lane i travels at least the minimum tree distance between the two zones'
// nodes, so it lands at least L(j→i) = minHops(j, i) × Quantum after the
// emitting event — the per-lane-pair lookahead matrix (see Lookahead). At
// each barrier the clock derives per-lane window bounds from the matrix and
// the post-merge heap minima:
//
//	m'_j = min(m_j, min over k of (m'_k + L(k→j)))   (min-plus closure)
//	w_i  = min over j≠i of (m'_j + L(j→i))
//
// The closure step matters: the raw heap minimum m_j is not the earliest
// time lane j can act — an event on a third lane k can seed lane j earlier
// work first, and the pairwise minima are not a metric (no triangle
// inequality over "nearest node" distances), so m'_j is computed as a
// shortest path over lanes. Any event lane j executes happens at or after
// m'_j, hence anything it emits into lane i arrives at or after w_i: events
// below w_i in lane i's post-merge heap are complete, and the window is safe.
// Zones far apart in the routing tree thus run many quanta ahead of each
// other instead of advancing in lock-step one-hop windows; with the matrix
// absent (Config.GlobalLookahead, or no topology information) every window
// falls back to the global bound m + Quantum.
//
// Determinism: lane execution order is fixed by each lane's own (timestamp,
// sequence) heap order; cross-lane events buffer in per-source-lane outboxes
// during the round and merge at the barrier in (source lane, emission order),
// so the sequence numbers they receive — and hence all tie-breaks — are
// independent of worker interleaving. Window bounds are computed only from
// barrier-time heap minima and the topology matrix, never from worker
// timing. Combined with per-zone RNG streams and barrier-applied group
// membership (see Network), a parallel run is bit-identical to the
// sequential (Workers=1) run of the same program: same delivery order per
// lane, same stats, same payload bytes.
type ShardedClock struct {
	lanes   []*shardLane
	quantum time.Duration
	workers int
	// now is the barrier-synchronized global virtual time: the maximum
	// lane-local time after the last completed round. Between rounds every
	// lane has executed all events below its own window bound.
	now atomic.Int64
	// inRound is set while lane workers execute a window; Network consults it
	// to defer group-membership mutations to the barrier.
	inRound atomic.Bool
	// postRound, when set, runs at each barrier after cross-lane merge (the
	// Network applies deferred membership mutations here).
	postRound func()

	// lookahead is the per-lane-pair hop matrix (nil = global-quantum mode);
	// laNs is its barrier snapshot in effective nanoseconds, refreshed when
	// laVersion trails the matrix version.
	lookahead *Lookahead
	laNs      []int64
	laVersion uint64

	// Barrier scratch, touched only by the driving goroutine.
	minAt     []int64 // post-merge per-lane heap minima (laneFar = empty)
	relaxed   []int64 // min-plus closure of minAt over the matrix
	visited   []bool  // closure scratch
	winNs     []int64 // per-lane window bounds for the current round
	activeIdx []int32 // lanes with work below their window, in lane order
	// Outbox merge scratch (group-by-destination batching).
	mergeCount []int32
	mergeStart []int32
	mergeOrder []int32

	// Persistent worker pool: workers-1 helper goroutines park on workCh
	// tokens; each token is one round participation (claim lanes of claimIdx
	// off cursor until drained, then partWG.Done). The driving goroutine
	// participates too and waits for every woken helper before reusing round
	// state, so rounds allocate nothing and no helper ever reads stale
	// scratch.
	poolOnce    sync.Once
	workCh      chan struct{}
	stopCh      chan struct{}
	stopOnce    sync.Once
	claimIdx    []int32 // the round's active lanes minus lane 0
	cursor      atomic.Int64
	partWG      sync.WaitGroup
	roundEvents atomic.Int64

	// Telemetry (see ShardStats).
	rounds      atomic.Int64
	events      atomic.Int64
	laneRounds  atomic.Int64
	crossMerged atomic.Int64
	causalViol  atomic.Int64
}

// laneFar marks an empty lane's heap minimum; far enough to act as infinity,
// small enough that adding lookahead spans cannot overflow.
const laneFar = int64(math.MaxInt64) / 4

// shardLane is one zone's event domain. All fields are guarded by mu except
// now (atomic: read by the lane's handlers mid-round and by external
// goroutines between rounds) and mayHaveWork.
type shardLane struct {
	mu sync.Mutex
	eh eventHeap
	// now is the lane-local virtual time: the timestamp of the lane's last
	// executed event (monotone), barrier-aligned between rounds.
	now atomic.Int64
	// mayHaveWork is the lane's dirty flag: set (under mu) on every push,
	// cleared (under mu) when the barrier scan finds the heap empty. A false
	// flag lets the scan skip the lane without taking its lock, so idle lanes
	// on sparse topologies cost one atomic load per round.
	mayHaveWork atomic.Bool
	// outbox buffers cross-lane events generated during the current round, in
	// emission order; the barrier merges them into the destination heaps.
	outbox []crossEvent
}

// crossEvent is one buffered cross-lane event (a packet delivery or a plain
// closure; expiries and cancelables are always lane-local).
type crossEvent struct {
	at   time.Duration
	lane int32
	fn   func()
	del  *delivery
}

// ShardQuantum returns the conservative lookahead quantum for a network with
// the given jitter fraction: the minimum cross-zone one-hop latency floor.
func ShardQuantum(procJitter float64) time.Duration {
	q := time.Duration(float64(ProcPerPacket) * (1 - procJitter))
	if q < time.Millisecond {
		q = time.Millisecond
	}
	return q
}

// NewShardedClock builds a sharded clock with the given number of zone lanes.
// workers bounds round parallelism: 0 means GOMAXPROCS, 1 forces the
// sequential single-loop schedule (bit-identical to any parallel run).
// Windows use the global quantum until setLookahead installs a topology
// matrix.
func NewShardedClock(lanes int, workers int, quantum time.Duration) *ShardedClock {
	if lanes < 1 {
		lanes = 1
	}
	if quantum <= 0 {
		quantum = ShardQuantum(0)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &ShardedClock{
		lanes:      make([]*shardLane, lanes),
		quantum:    quantum,
		workers:    workers,
		stopCh:     make(chan struct{}),
		minAt:      make([]int64, lanes),
		relaxed:    make([]int64, lanes),
		visited:    make([]bool, lanes),
		winNs:      make([]int64, lanes),
		activeIdx:  make([]int32, 0, lanes),
		mergeCount: make([]int32, lanes),
		mergeStart: make([]int32, lanes),
	}
	for i := range c.lanes {
		c.lanes[i] = &shardLane{}
	}
	return c
}

// setLookahead installs the per-lane-pair hop matrix; windows switch from the
// global quantum to matrix-derived bounds at the next barrier. Only
// meaningful before the clock starts running rounds (Network.New wires it).
func (c *ShardedClock) setLookahead(la *Lookahead) {
	if la == nil || len(c.lanes) < 2 {
		return
	}
	c.lookahead = la
	c.laNs = make([]int64, len(c.lanes)*len(c.lanes))
	c.laVersion = la.snapshotNs(c.quantum, c.laNs)
}

// Lanes returns the number of zone lanes.
func (c *ShardedClock) Lanes() int { return len(c.lanes) }

// Sequential reports whether rounds execute lanes in order on the driving
// goroutine (the single-loop schedule) rather than on the worker pool.
func (c *ShardedClock) Sequential() bool { return c.workers == 1 }

// PairLookahead reports whether windows derive from the per-lane-pair matrix
// rather than the global quantum.
func (c *ShardedClock) PairLookahead() bool { return c.lookahead != nil }

// ShardStats is the clock's barrier telemetry. All counts are deterministic
// for a given schedule: windows derive from heap state and topology only, so
// parallel and sequential runs report identical numbers.
type ShardStats struct {
	// Rounds is the number of barrier rounds executed.
	Rounds int64
	// Events is the total number of events executed inside rounds.
	Events int64
	// LaneRounds sums each round's active-lane count; LaneRounds /
	// (Rounds × Lanes) is the mean lane occupancy.
	LaneRounds int64
	// CrossMerged counts cross-lane events merged at barriers (the summed
	// outbox merge sizes).
	CrossMerged int64
	// CausalityViolations counts merged cross-lane events timestamped before
	// their destination lane's local clock — always zero if the window bounds
	// are sound; exported so tests and telemetry can assert it.
	CausalityViolations int64
}

// Stats returns a snapshot of the barrier telemetry.
func (c *ShardedClock) Stats() ShardStats {
	return ShardStats{
		Rounds:              c.rounds.Load(),
		Events:              c.events.Load(),
		LaneRounds:          c.laneRounds.Load(),
		CrossMerged:         c.crossMerged.Load(),
		CausalityViolations: c.causalViol.Load(),
	}
}

// Now returns the barrier-synchronized global virtual time. During a round,
// handlers should consult their node's lane-local Now (Node.Now) instead.
func (c *ShardedClock) Now() time.Duration { return time.Duration(c.now.Load()) }

// laneNow returns a lane's local virtual time.
func (c *ShardedClock) laneNow(lane int32) time.Duration {
	return time.Duration(c.lanes[lane].now.Load())
}

// base is the scheduling origin for a lane: its local time mid-round, never
// behind the global barrier time (an external caller between rounds schedules
// relative to the global clock even on a lane that has been idle).
func (c *ShardedClock) base(sl *shardLane) time.Duration {
	b := sl.now.Load()
	if g := c.now.Load(); g > b {
		b = g
	}
	return time.Duration(b)
}

// Schedule runs fn at Now()+delay. Events scheduled without a node land on
// lane 0, the control lane (the border-router zone, where manager and
// clients live); their callbacks run serially with lane 0's own events.
func (c *ShardedClock) Schedule(delay time.Duration, fn func()) {
	c.scheduleLane(0, delay, fn)
}

// scheduleLane runs fn on a lane at that lane's base time + delay.
func (c *ShardedClock) scheduleLane(lane int32, delay time.Duration, fn func()) {
	sl := c.lanes[lane]
	at := c.base(sl) + delay
	sl.mu.Lock()
	sl.eh.pushAt(at, fn)
	sl.mayHaveWork.Store(true)
	sl.mu.Unlock()
}

// ScheduleCancelable runs fn at Now()+delay on the control lane and returns a
// cancel function (semantics match VirtualClock.ScheduleCancelable).
func (c *ShardedClock) ScheduleCancelable(delay time.Duration, fn func()) (cancel func()) {
	return c.scheduleCancelableLane(0, delay, fn)
}

// scheduleCancelableLane is the lane-affine cancelable variant; timers a node
// arms always live on the node's own lane, so cancels stay lane-local.
func (c *ShardedClock) scheduleCancelableLane(lane int32, delay time.Duration, fn func()) (cancel func()) {
	sl := c.lanes[lane]
	at := c.base(sl) + delay
	sl.mu.Lock()
	ev, gen := sl.eh.pushCancelableAt(at, fn)
	sl.mayHaveWork.Store(true)
	sl.mu.Unlock()
	return func() {
		sl.mu.Lock()
		sl.eh.cancel(ev, gen)
		sl.mu.Unlock()
	}
}

// scheduleExpiryLane queues a typed expiry event on a lane; the returned ref
// cancels through the lane, which implements expiryCanceler.
func (c *ShardedClock) scheduleExpiryLane(lane int32, delay time.Duration, e Expirer, seq uint64, tok any) ExpiryRef {
	sl := c.lanes[lane]
	at := c.base(sl) + delay
	sl.mu.Lock()
	ev, gen := sl.eh.pushExpiryAt(at, e, seq, tok)
	sl.mayHaveWork.Store(true)
	sl.mu.Unlock()
	return ExpiryRef{c: sl, ev: ev, gen: gen}
}

// cancelExpiry implements expiryCanceler for ExpiryRefs minted on this lane.
func (sl *shardLane) cancelExpiry(ev *scheduled, gen uint64) {
	sl.mu.Lock()
	sl.eh.cancel(ev, gen)
	sl.mu.Unlock()
}

// scheduleDelivery routes a packet delivery. Same-lane deliveries (and any
// delivery scheduled between rounds) go straight into the destination heap;
// cross-lane deliveries emitted mid-round buffer in the source lane's outbox
// until the barrier, which is what keeps destination-heap sequence numbers —
// and with them all tie-breaks — independent of worker interleaving.
func (c *ShardedClock) scheduleDelivery(srcLane, dstLane int32, delay time.Duration, del *delivery) {
	sl := c.lanes[srcLane]
	at := c.base(sl) + delay
	if srcLane == dstLane || !c.inRound.Load() {
		dl := c.lanes[dstLane]
		dl.mu.Lock()
		dl.eh.pushDeliveryAt(at, del)
		dl.mayHaveWork.Store(true)
		dl.mu.Unlock()
		return
	}
	sl.mu.Lock()
	sl.outbox = append(sl.outbox, crossEvent{at: at, lane: dstLane, del: del})
	sl.mu.Unlock()
}

// Stop retires the worker pool (helpers park between rounds, so this never
// interrupts a window); subsequent rounds execute inline. Idempotent.
func (c *ShardedClock) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
}

// stopped reports whether Stop retired the pool.
func (c *ShardedClock) stopped() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}

// merge drains every lane's outbox into the destination heaps, in (source
// lane, emission order) — the deterministic part of the barrier. Each
// source's batch is grouped by destination first so every destination heap is
// locked once per source instead of once per event; within one destination
// the emission order (and so the sequence numbering) is preserved, and
// groups of different destinations never share a heap, so the grouping
// cannot affect any tie-break. Cross events timestamped before their
// destination's local clock would be causality violations; they are counted,
// never silently reordered.
func (c *ShardedClock) merge() {
	for _, sl := range c.lanes {
		sl.mu.Lock()
		box := sl.outbox
		sl.outbox = nil
		sl.mu.Unlock()
		if len(box) == 0 {
			continue
		}
		c.mergeBox(box)
		for i := range box {
			box[i] = crossEvent{}
		}
		sl.mu.Lock()
		if sl.outbox == nil {
			sl.outbox = box[:0]
		}
		sl.mu.Unlock()
	}
}

// mergeBox pushes one source lane's outbox, grouped by destination.
func (c *ShardedClock) mergeBox(box []crossEvent) {
	c.crossMerged.Add(int64(len(box)))
	cnt := c.mergeCount
	for i := range cnt {
		cnt[i] = 0
	}
	for i := range box {
		cnt[box[i].lane]++
	}
	if cap(c.mergeOrder) < len(box) {
		c.mergeOrder = make([]int32, len(box))
	}
	ord := c.mergeOrder[:len(box)]
	start := c.mergeStart
	s := int32(0)
	for j := range start {
		start[j] = s
		s += cnt[j]
	}
	for i := range box {
		l := box[i].lane
		ord[start[l]] = int32(i)
		start[l]++
	}
	for j := range c.lanes {
		if cnt[j] == 0 {
			continue
		}
		group := ord[start[j]-cnt[j] : start[j]]
		dl := c.lanes[j]
		dl.mu.Lock()
		lnow := time.Duration(dl.now.Load())
		for _, i := range group {
			ev := &box[i]
			if ev.at < lnow {
				c.causalViol.Add(1)
			}
			if ev.del != nil {
				dl.eh.pushDeliveryAt(ev.at, ev.del)
			} else {
				dl.eh.pushAt(ev.at, ev.fn)
			}
		}
		dl.mayHaveWork.Store(true)
		dl.mu.Unlock()
	}
}

// settle completes the current round's windows: the driving goroutine
// claims the lanes still unclaimed and waits for every woken helper. Outside
// a round it does nothing. Inside one it is a reentrant step, called from a
// lane 0 handler on the driving goroutine (an SDK callback making a blocking
// call): the other lanes finish their windows first, so the nested rounds
// start from a barrier-consistent state on every worker count. The
// interrupted lane 0 window resumes once the nested call returns.
func (c *ShardedClock) settle() {
	if !c.inRound.Load() {
		return
	}
	c.claimLanes()
	c.partWG.Wait()
	c.inRound.Store(false)
}

// scanMinima runs the serial head of a barrier: settle a round a reentrant
// step interrupted, merge stranded outbox entries (an external sender racing
// a round's end can leave one behind), then record every lane's heap
// minimum, skipping lanes whose dirty flag shows them empty. Returns the
// global minimum and whether any event is pending.
func (c *ShardedClock) scanMinima() (int64, bool) {
	c.settle()
	c.merge()
	g := laneFar
	for i, sl := range c.lanes {
		if !sl.mayHaveWork.Load() {
			c.minAt[i] = laneFar
			continue
		}
		sl.mu.Lock()
		ev := sl.eh.peek()
		if ev == nil {
			// The flag only resets here, under the same lock pushes take, so
			// a concurrent push cannot be lost: it either lands before the
			// peek or sets the flag after this store.
			sl.mayHaveWork.Store(false)
			sl.mu.Unlock()
			c.minAt[i] = laneFar
			continue
		}
		sl.mu.Unlock()
		c.minAt[i] = int64(ev.at)
		if int64(ev.at) < g {
			g = int64(ev.at)
		}
	}
	return g, g < laneFar
}

// computeWindows fills winNs for a round starting at global minimum g,
// bounded by limit (exclusive). In matrix mode each lane's bound is
// w_i = min over j≠i of (m'_j + L(j→i)) with m' the min-plus closure of the
// heap minima over the matrix; otherwise every lane gets g + quantum.
func (c *ShardedClock) computeWindows(g, limit int64) {
	n := len(c.lanes)
	if c.lookahead == nil || n < 2 {
		w := g + int64(c.quantum)
		if w > limit {
			w = limit
		}
		for i := range c.winNs {
			c.winNs[i] = w
		}
		return
	}
	if v := c.lookahead.version.Load(); v != c.laVersion {
		c.laVersion = c.lookahead.snapshotNs(c.quantum, c.laNs)
	}
	// Min-plus closure of the minima over the matrix (dense Dijkstra; edge
	// weights are positive, lanes are few).
	copy(c.relaxed, c.minAt)
	for i := range c.visited {
		c.visited[i] = false
	}
	for {
		u, best := -1, laneFar
		for i, vis := range c.visited {
			if !vis && c.relaxed[i] < best {
				u, best = i, c.relaxed[i]
			}
		}
		if u < 0 {
			break
		}
		c.visited[u] = true
		row := c.laNs[u*n : (u+1)*n]
		for j := 0; j < n; j++ {
			if j == u || c.visited[j] {
				continue
			}
			if cand := best + row[j]; cand < c.relaxed[j] {
				c.relaxed[j] = cand
			}
		}
	}
	for i := 0; i < n; i++ {
		w := limit
		for j := 0; j < n; j++ {
			if j == i || c.relaxed[j] >= laneFar {
				continue
			}
			if cand := c.relaxed[j] + c.laNs[j*n+i]; cand < w {
				w = cand
			}
		}
		c.winNs[i] = w
	}
}

// runWindow executes events with timestamps in [*, w1) on one lane, in heap
// order, advancing the lane-local clock. Returns the number executed.
func (sl *shardLane) runWindow(w1 time.Duration) int {
	steps := 0
	for {
		sl.mu.Lock()
		ev := sl.eh.peek()
		if ev == nil || ev.at >= w1 {
			sl.mu.Unlock()
			return steps
		}
		ev = sl.eh.pop()
		if at := int64(ev.at); at > sl.now.Load() {
			sl.now.Store(at)
		}
		f, pool := extractFiring(&sl.eh, ev)
		sl.mu.Unlock()
		if pool {
			recycleEvent(ev)
		}
		f.run()
		steps++
	}
}

// ensurePool lazily spawns the workers-1 helper goroutines. They live until
// Stop; between rounds they park on the token channel, so an idle clock
// costs nothing per round beyond the token sends.
func (c *ShardedClock) ensurePool() {
	c.poolOnce.Do(func() {
		n := c.workers - 1
		c.workCh = make(chan struct{}, n)
		for i := 0; i < n; i++ {
			go c.helper()
		}
	})
}

func (c *ShardedClock) helper() {
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.workCh:
			c.claimLanes()
			c.partWG.Done()
		}
	}
}

// claimLanes pulls active lanes off the shared cursor and runs their windows
// until none remain. Lane windows and step counts index by lane, so
// participants never write shared state beyond the atomics.
func (c *ShardedClock) claimLanes() {
	idx := c.claimIdx
	for {
		k := int(c.cursor.Add(1)) - 1
		if k >= len(idx) {
			return
		}
		li := idx[k]
		if n := c.lanes[li].runWindow(time.Duration(c.winNs[li])); n > 0 {
			c.roundEvents.Add(int64(n))
		}
	}
}

// roundFrom executes one barrier round: windows from the minima recorded by
// scanMinima (global minimum g), bounded by limit (exclusive); then the
// barrier — merge outboxes, apply deferred network mutations, advance the
// global clock. Returns the number of events executed.
//
// Lane 0, the control lane, always runs on the driving goroutine, while
// helpers take the other lanes: it hosts the manager, the clients and every
// closure scheduled without a node, so every SDK callback runs on the
// goroutine that is stepping the clock. A blocking SDK call made from such a
// callback steps the clock reentrantly; scanMinima settles the interrupted
// round first (see settle). Lanes never interact inside a round, so which
// goroutine runs which lane, and in what order, cannot change a result.
func (c *ShardedClock) roundFrom(g, limit int64) int {
	c.computeWindows(g, limit)
	active := c.activeIdx[:0]
	for i := range c.lanes {
		if c.minAt[i] < c.winNs[i] {
			active = append(active, int32(i))
		}
	}
	c.activeIdx = active
	lane0 := len(active) > 0 && active[0] == 0
	claim := active
	if lane0 {
		claim = active[1:]
	}
	c.claimIdx = claim
	c.cursor.Store(0)
	c.roundEvents.Store(0)
	c.inRound.Store(true)
	// Helpers only pay off for lanes the driving goroutine cannot take
	// itself: it runs lane 0 when active, else claims one lane.
	helpers := len(claim)
	if !lane0 {
		helpers--
	}
	if helpers > c.workers-1 {
		helpers = c.workers - 1
	}
	if helpers > 0 && !c.stopped() {
		c.ensurePool()
		c.partWG.Add(helpers)
		for i := 0; i < helpers; i++ {
			c.workCh <- struct{}{}
		}
	}
	if lane0 {
		c.roundEvents.Add(int64(c.lanes[0].runWindow(time.Duration(c.winNs[0]))))
	}
	c.settle()
	total := int(c.roundEvents.Load())
	c.merge()
	if c.postRound != nil {
		c.postRound()
	}
	gmax := c.now.Load()
	for _, sl := range c.lanes {
		if t := sl.now.Load(); t > gmax {
			gmax = t
		}
	}
	c.now.Store(gmax)
	c.rounds.Add(1)
	c.events.Add(int64(total))
	c.laneRounds.Add(int64(len(active)))
	return total
}

// Step executes the next window of scheduled events (one barrier round),
// advancing the clock. It reports whether any event ran. One sharded Step
// covers up to a window of virtual time, not a single event — drivers that
// step until a condition holds (the SDK's await loop) are unaffected.
func (c *ShardedClock) Step() bool {
	g, ok := c.scanMinima()
	if !ok {
		return false
	}
	return c.roundFrom(g, laneFar) > 0
}

// StepUntil executes at most one barrier round whose windows are additionally
// clamped to the deadline (inclusive), reporting whether any event ran. When
// no pending event is due by the deadline the clock advances straight to it.
// This is the cooperative-driver primitive: one call is one bounded slice of
// parallel work, after which the caller can re-examine its wake conditions.
func (c *ShardedClock) StepUntil(deadline time.Duration) bool {
	g, ok := c.scanMinima()
	if !ok || g > int64(deadline) {
		c.advanceTo(deadline)
		return false
	}
	return c.roundFrom(g, int64(deadline)+1) > 0
}

// RunUntilIdle runs rounds until no events remain (bounded by maxSteps
// executed events; 0 means the 1e6 default). Returns the number of events.
func (c *ShardedClock) RunUntilIdle(maxSteps int) int {
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	total := 0
	for total < maxSteps {
		g, ok := c.scanMinima()
		if !ok {
			break
		}
		total += c.roundFrom(g, laneFar)
	}
	return total
}

// advanceTo lifts every lane (and the global clock) to the deadline.
func (c *ShardedClock) advanceTo(deadline time.Duration) {
	d := int64(deadline)
	for _, sl := range c.lanes {
		if sl.now.Load() < d {
			sl.now.Store(d)
		}
	}
	if c.now.Load() < d {
		c.now.Store(d)
	}
}

// RunUntil processes events up to (and including) the virtual deadline, then
// advances the clock to the deadline.
func (c *ShardedClock) RunUntil(deadline time.Duration) int {
	steps := 0
	for {
		g, ok := c.scanMinima()
		if !ok || g > int64(deadline) {
			c.advanceTo(deadline)
			return steps
		}
		// The window bound is exclusive; deadline+1 includes events at the
		// deadline while keeping every lane's clock at or below it.
		steps += c.roundFrom(g, int64(deadline)+1)
	}
}

// RunUntilQuiesced processes events up to (and including) the deadline,
// reporting whether every lane drained before reaching it. On a drain the
// clock stays at the last event's time (like RunUntilIdle); otherwise it
// advances exactly to the deadline with the remaining events still queued.
func (c *ShardedClock) RunUntilQuiesced(deadline time.Duration) bool {
	for {
		g, ok := c.scanMinima()
		if !ok {
			return true
		}
		if g > int64(deadline) {
			c.advanceTo(deadline)
			return false
		}
		c.roundFrom(g, int64(deadline)+1)
	}
}

// queueCap exposes the summed backing capacity of the lane heaps; leak tests
// assert it stays bounded.
func (c *ShardedClock) queueCap() int {
	total := 0
	for _, sl := range c.lanes {
		sl.mu.Lock()
		total += cap(sl.eh.queue)
		sl.mu.Unlock()
	}
	return total
}
