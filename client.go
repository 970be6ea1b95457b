package micropnp

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
)

// Client is a µPnP client: software that discovers and uses peripherals
// hosted by Things. Its calls are synchronous: each one blocks until the
// reply arrives, the deadline passes, or the context is cancelled. In
// virtual mode blocked calls cooperatively drive the discrete-event
// simulator; in real-time mode they wait on channels while the network's
// own goroutines do the work. A Client is safe for concurrent use — any
// number of goroutines may issue Reads, Writes, Discovers and Subscribes
// at once.
type Client struct {
	d  *Deployment
	cl *client.Client
}

// Addr returns the client's unicast IPv6 address.
func (c *Client) Addr() netip.Addr { return c.cl.Addr() }

// Adverts returns every advertisement the client observed so far,
// unsolicited ones included.
func (c *Client) Adverts() []Advert { return advertsFrom(c.cl.Adverts()) }

// Things returns the distinct Things that advertised a peripheral type
// (AllPeripherals matches any).
func (c *Client) Things(id DeviceID) []netip.Addr { return c.cl.Things(hw.DeviceID(id)) }

// InFlight returns the number of requests (reads, writes, discoveries) this
// client currently has pending — a diagnostic for load tooling, and zero
// once every call returned: cancelled calls retract their pending entry
// immediately rather than letting it expire at its deadline.
func (c *Client) InFlight() int { return c.cl.Pending() }

// OnAdvert registers a callback invoked for every incoming advertisement,
// replacing any callback registered before. For composable listeners use
// AddAdvertHook. In virtual mode the callback may make blocking SDK calls:
// they drive the simulator inline from inside it.
func (c *Client) OnAdvert(fn func(Advert)) {
	if fn == nil {
		c.cl.OnAdvert(nil)
		return
	}
	d := c.d
	c.cl.OnAdvert(func(a client.Advert) {
		d.enterCallback()
		defer d.exitCallback()
		fn(advertFrom(a))
	})
}

// AddAdvertHook registers an additional advertisement listener. Unlike
// OnAdvert it composes: every registered hook fires for every advert,
// alongside the OnAdvert callback, so independent consumers — a catalog
// feeding on the advert flow, an application callback — can coexist without
// clobbering each other. Hooks cannot be removed; they live as long as the
// client. Hooks run on the goroutine delivering the advert (a pool worker in
// real-time mode) and must not block; in virtual mode a blocking SDK call
// from a hook drives the simulator inline, as from OnAdvert.
func (c *Client) AddAdvertHook(fn func(Advert)) {
	if fn == nil {
		return
	}
	d := c.d
	c.cl.AddAdvertHook(func(a client.Advert) {
		d.enterCallback()
		defer d.exitCallback()
		fn(advertFrom(a))
	})
}

// units resolves the unit string for a peripheral type: what the Thing
// advertised, falling back to the shipped-driver registry.
func (c *Client) units(id DeviceID) string {
	if u := c.cl.Units(hw.DeviceID(id)); u != "" {
		return u
	}
	return driver.UnitsFor(hw.DeviceID(id))
}

// Read requests one value set from a peripheral on a Thing and blocks
// (driving the simulator) until the reply arrives or the deadline passes.
// It returns ErrTimeout when the Thing is unreachable or the reply is lost,
// ErrNoPeripheral when the Thing serves no such device, and the context's
// error on cancellation.
func (c *Client) Read(ctx context.Context, thing netip.Addr, id DeviceID) (Reading, error) {
	// The reply callback writes into the pooled completion's result slots —
	// no per-call result cell on the heap, and the callback closure captures
	// only the deployment alongside the completion it is handed. The Reading
	// itself is assembled here after await hands the completion back; only
	// the reply timestamp must be sampled inside the callback, while the
	// simulator still stands at the delivery instant.
	d := c.d
	cpl, err := d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		return c.cl.Read(thing, hw.DeviceID(id), timeout, func(vals []int32, err error) {
			// Write the results before signalling completion: the awaiting
			// goroutine reads them the moment complete() delivers the token.
			cpl.vals, cpl.err = vals, err
			cpl.at = d.Now()
			cpl.complete()
		})
	})
	if err != nil {
		return Reading{}, err
	}
	vals, rerr, at := cpl.vals, cpl.err, cpl.at
	cpl.recycle()
	if rerr != nil {
		return Reading{}, rerr
	}
	return Reading{
		Thing:  thing,
		Device: id,
		Values: vals,
		Units:  c.units(id),
		At:     at,
	}, nil
}

// ReadInto is Read with a caller-provided value buffer: the reply's values
// are parsed by appending into scratch[:0] (growing it only when capacity is
// short), so the returned Reading.Values alias the scratch instead of a
// fresh allocation. Recycling the returned Values as the next call's scratch
// makes steady-state reads free of the per-read value allocation — the shape
// load generators use so measurement does not perturb the zero-allocation
// hot path:
//
//	var buf []int32
//	for ... {
//		r, err := cl.ReadInto(ctx, addr, id, buf)
//		if err == nil { buf = r.Values } // reuse the (possibly grown) buffer
//	}
//
// The aliasing means the Reading is only valid until the scratch is reused;
// copy Values to retain them. Do not issue a second ReadInto with the same
// scratch while one is still in flight.
func (c *Client) ReadInto(ctx context.Context, thing netip.Addr, id DeviceID, scratch []int32) (Reading, error) {
	d := c.d
	cpl, err := d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		return c.cl.ReadInto(thing, hw.DeviceID(id), scratch, timeout, func(vals []int32, err error) {
			cpl.vals, cpl.err = vals, err
			cpl.at = d.Now()
			cpl.complete()
		})
	})
	if err != nil {
		return Reading{}, err
	}
	vals, rerr, at := cpl.vals, cpl.err, cpl.at
	cpl.recycle()
	if rerr != nil {
		return Reading{}, rerr
	}
	return Reading{
		Thing:  thing,
		Device: id,
		Values: vals,
		Units:  c.units(id),
		At:     at,
	}, nil
}

// Write sends values to a peripheral (e.g. an actuator) and blocks until
// the acknowledgement. It returns ErrWriteRejected when the Thing serves no
// such peripheral or rejects the payload, ErrTimeout on loss.
func (c *Client) Write(ctx context.Context, thing netip.Addr, id DeviceID, vals []int32) error {
	cpl, err := c.d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		return c.cl.Write(thing, hw.DeviceID(id), vals, timeout, func(err error) {
			cpl.err = err
			cpl.complete()
		})
	})
	if err != nil {
		return err
	}
	werr := cpl.err
	cpl.recycle()
	return werr
}

// Discover multicasts a discovery for a peripheral type (AllPeripherals for
// everything) and collects the solicited advertisements that arrive within
// the discovery window — the context deadline when one is set, the default
// request timeout otherwise. An empty result is not an error; the network
// may genuinely serve no such peripheral.
func (c *Client) Discover(ctx context.Context, id DeviceID) ([]Advert, error) {
	return c.runDiscovery(ctx, discoverByType, id, 0, 0)
}

// discoverKind selects the discovery flavour.
const (
	discoverByType = iota
	discoverByClass
	discoverByZone
)

func (c *Client) runDiscovery(ctx context.Context, kind int, id DeviceID, class uint8, zone uint16) ([]Advert, error) {
	var got []Advert
	cpl, err := c.d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		collect := func(adverts []client.Advert) {
			got = advertsFrom(adverts)
			cpl.complete()
		}
		switch kind {
		case discoverByClass:
			return c.cl.DiscoverClass(class, timeout, collect)
		case discoverByZone:
			return c.cl.DiscoverInZone(zone, hw.DeviceID(id), timeout, collect)
		default:
			return c.cl.Discover(hw.DeviceID(id), timeout, collect)
		}
	})
	if err != nil {
		return nil, err
	}
	cpl.recycle()
	return got, nil
}

// DiscoverClass discovers any peripheral of a device class, regardless of
// vendor or product (Section 9 hierarchical typing). Only Things running
// the structured namespace respond.
func (c *Client) DiscoverClass(ctx context.Context, class uint8) ([]Advert, error) {
	return c.runDiscovery(ctx, discoverByClass, 0, class, 0)
}

// DiscoverInZone discovers a peripheral type within a location zone
// (Section 9 location-aware multicast).
func (c *Client) DiscoverInZone(ctx context.Context, zone uint16, id DeviceID) ([]Advert, error) {
	return c.runDiscovery(ctx, discoverByZone, id, 0, zone)
}

// ---------------------------------------------------------------------------
// Subscriptions

// Subscription is a handle on a peripheral's value stream. Data arrives
// while the deployment runs (Deployment.RunFor); each reading is delivered
// to the OnReading callback and retained in the handle's history.
type Subscription struct {
	c      *Client
	stream *client.Stream
	thing  netip.Addr
	id     DeviceID

	mu       sync.Mutex
	readings []Reading
	closed   bool
	onRead   func(Reading)
}

// Device returns the peripheral type the subscription serves.
func (s *Subscription) Device() DeviceID { return s.id }

// Thing returns the streaming Thing's address.
func (s *Subscription) Thing() netip.Addr { return s.thing }

// Readings returns the readings received so far.
func (s *Subscription) Readings() []Reading {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Reading(nil), s.readings...)
}

// Closed reports whether the stream ended — by the Thing closing it or by
// Close.
func (s *Subscription) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close unsubscribes locally. The Thing keeps streaming for any other
// subscribers until it closes the stream itself.
//
// Close is idempotent and safe to call from any goroutine, concurrently
// with other Closes and with in-flight deliveries: the node leaves the
// stream's multicast group exactly once (and only when no other live
// subscription still needs it), and a redundant Close is a no-op. One
// delivery already being dispatched when Close is called may still invoke
// OnReading (and be retained in Readings) after Close returns — Close
// synchronizes the subscription's state, not the network's in-flight
// traffic; no deliveries are dispatched after that final race window.
func (s *Subscription) Close() {
	s.mu.Lock()
	s.closed = true
	stream := s.stream
	s.mu.Unlock()
	// stream is nil when the subscribe request was never sent (context
	// already expired before registration).
	if stream != nil {
		stream.Close()
	}
}

// Subscribe requests a peripheral's value stream from a Thing and blocks
// until the stream is established (the Thing answers with the multicast
// group to join) or the deadline passes. onReading may be nil; readings are
// always retained in the returned handle, and in virtual mode onReading may
// make blocking SDK calls, which drive the simulator inline. Remember to
// Close the subscription when done:
//
//	sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.BMP180, nil)
//	if err != nil { ... }
//	defer sub.Close()
//	d.RunFor(30 * time.Second) // three 10 s stream ticks
//	for _, r := range sub.Readings() { ... }
func (c *Client) Subscribe(ctx context.Context, thing netip.Addr, id DeviceID, onReading func(Reading)) (*Subscription, error) {
	sub := &Subscription{c: c, thing: thing, id: id, onRead: onReading}
	cpl, err := c.d.await(ctx, func(timeout time.Duration, cpl *completion) (retract func()) {
		sub.stream = c.cl.Subscribe(thing, hw.DeviceID(id), client.SubscribeOptions{
			Timeout: timeout,
			OnData: func(vals []int32) {
				r := Reading{
					Thing:  thing,
					Device: id,
					Values: vals,
					Units:  c.units(id),
					At:     c.d.Now(),
				}
				sub.mu.Lock()
				if sub.closed {
					// Close won the race against this delivery: drop it so
					// Readings stays stable once Close was observed.
					sub.mu.Unlock()
					return
				}
				sub.readings = append(sub.readings, r)
				cb := sub.onRead
				sub.mu.Unlock()
				if cb != nil {
					c.d.enterCallback()
					defer c.d.exitCallback()
					cb(r)
				}
			},
			OnClosed: func() {
				sub.mu.Lock()
				sub.closed = true
				sub.mu.Unlock()
			},
			OnEstablished: func(err error) {
				cpl.err = err
				cpl.complete()
			},
		})
		// Subscriptions retract through sub.Close below: closing also leaves
		// the stream's multicast group when it was already established.
		return nil
	})
	if err != nil {
		// Cancelled mid-establishment: retract the subscription so a later
		// establishment reply cannot join the group for an orphaned handle.
		sub.Close()
		return nil, err
	}
	serr := cpl.err
	cpl.recycle()
	if serr != nil {
		return nil, serr
	}
	return sub, nil
}
