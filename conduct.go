package micropnp

import (
	"context"
	"time"
)

// Conduct runs a set of functions as cooperative strands of one
// deterministic schedule, in virtual mode: each strand gets its own
// goroutine, but exactly one runs at a time, handed a baton by an
// orchestrator that owns the simulator for the duration of the call. A
// strand runs until it blocks — on a synchronous SDK call (Read, Write,
// Discover, Subscribe, ...) or on Strand.Until — then yields; the
// orchestrator resumes every runnable strand in index order, and only when
// none is runnable advances the network by one bounded barrier round (or to
// the earliest Until deadline) and re-checks. Conduct returns when every
// strand function has returned.
//
// Because strand interleaving is decided purely by strand index, virtual
// time and completion state — never by goroutine scheduling — a conducted
// program is bit-deterministic like a single-goroutine one, while zone-aware
// workloads issue ops from one strand per zone group between rounds instead
// of a single thread feeding all lanes (the loadgen zoned engine).
//
// Strands identify themselves by context, not by goroutine: a strand's SDK
// calls must carry Strand.Context() (or a context derived from it), which
// routes them onto the baton. While Conduct runs it owns the simulator, so
// a blocking call carrying no strand — from a strand that forgot its
// context or from any other goroutine — panics instead of waiting forever
// for a driver lock the orchestrator holds. Blocking calls made from
// simulator callbacks (OnReading, OnAdvert, ScheduleAfter closures) run
// reentrantly on the orchestrator, as they do under Run.
//
// Constraints: virtual mode only (panics in realtime mode — plain goroutines
// are the right tool there); strand contexts must carry no deadline
// (WithRequestTimeout bounds calls in virtual time; wall-clock deadlines
// would break determinism); strands must not call Run/RunFor/Quiesce/Conduct
// themselves — the orchestrator owns the clock, and those calls panic.
func (d *Deployment) Conduct(fns ...func(*Strand)) {
	if d.realtime {
		panic("micropnp: Conduct requires virtual mode")
	}
	if len(fns) == 0 {
		return
	}
	d.waiters.Add(1)
	defer d.waiters.Add(-1)
	if !d.pumpMu.TryLock() {
		if d.reentrant() {
			panic("micropnp: Conduct called from a simulator callback")
		}
		d.checkConduct()
		d.waitLock()
	}
	c := &conductor{strands: make([]*Strand, len(fns))}
	for i, fn := range fns {
		s := &Strand{d: d, c: c, resume: make(chan struct{}), yielded: make(chan struct{})}
		s.ctx = context.WithValue(context.Background(), strandKey{}, s)
		c.strands[i] = s
		go s.top(fn)
	}
	// From here calls carrying a strand's context park on the baton; the
	// strands themselves start on their first handoff.
	d.conduct.Store(c)
	defer func() {
		d.conduct.Store(nil)
		d.release()
	}()
	net := d.core.Network
	for {
		// Resume every runnable strand, in index order, until a full pass
		// finds none. A resumed strand may complete another's wake condition
		// (an op it issues can't, before time advances, but finishing changes
		// allDone), so the pass repeats while it makes progress.
		for progress := true; progress; {
			progress = false
			for _, s := range c.strands {
				if s.state != strandDone && s.runnable(net.Now()) {
					s.handoff()
					progress = true
				}
			}
		}
		allDone := true
		wake := time.Duration(-1)
		for _, s := range c.strands {
			switch s.state {
			case strandDone:
				continue
			case strandWaitUntil:
				if wake < 0 || s.wakeAt < wake {
					wake = s.wakeAt
				}
			}
			allDone = false
		}
		if allDone {
			return
		}
		if wake >= 0 {
			net.StepUntil(wake)
			continue
		}
		// Every live strand waits on a completion; one bounded round fires
		// the earliest pending events. Every SDK request arms a virtual-time
		// expiry at registration, so a drained queue here cannot happen.
		if !net.Step() {
			panic("micropnp: conducted strands blocked on a drained simulator")
		}
	}
}

// conductor is one Conduct call's strand set; immutable once published.
type conductor struct {
	strands []*Strand
}

// strandKey is the context key under which Strand.Context carries its
// strand.
type strandKey struct{}

// strandOf returns the strand a context carries, or nil.
func strandOf(ctx context.Context) *Strand {
	s, _ := ctx.Value(strandKey{}).(*Strand)
	return s
}

type strandState int

const (
	strandRunnable  strandState = iota // primed or resumable; run on next pass
	strandWaitDone                     // parked in an SDK call on cpl
	strandWaitUntil                    // parked in Until(wakeAt)
	strandDone                         // function returned
)

// Strand is one cooperative lane of a Conduct schedule. Its methods are only
// meaningful on the strand's own goroutine, while it holds the baton.
type Strand struct {
	d   *Deployment
	c   *conductor
	ctx context.Context
	// resume and yielded are the unbuffered baton channels: the orchestrator
	// sends resume to run the strand and receives yielded when it parks or
	// finishes. The state fields below are written by whichever side holds
	// the baton and read by the other after the handoff, so the channel
	// synchronization orders every access.
	resume  chan struct{}
	yielded chan struct{}
	state   strandState
	wakeAt  time.Duration
	cpl     *completion
}

// top is the strand goroutine's trampoline: wait for the first handoff,
// then run fn to completion.
func (s *Strand) top(fn func(*Strand)) {
	<-s.resume
	fn(s)
	s.state = strandDone
	s.yielded <- struct{}{}
}

// runnable reports whether the strand's wake condition holds.
func (s *Strand) runnable(now time.Duration) bool {
	switch s.state {
	case strandRunnable:
		return true
	case strandWaitDone:
		return s.cpl.fired.Load()
	case strandWaitUntil:
		return now >= s.wakeAt
	}
	return false
}

// handoff passes the baton to the strand and waits for it back.
func (s *Strand) handoff() {
	s.state = strandRunnable
	s.resume <- struct{}{}
	<-s.yielded
}

// Until parks the strand until virtual time reaches t. If the clock is
// already past t (lanes can run ahead of a strand's schedule), it returns
// immediately — open-loop issue semantics.
func (s *Strand) Until(t time.Duration) {
	if s.d.Now() >= t {
		return
	}
	s.state = strandWaitUntil
	s.wakeAt = t
	s.yielded <- struct{}{}
	<-s.resume
}

// Now returns the current virtual time.
func (s *Strand) Now() time.Duration { return s.d.Now() }

// Context returns the context the strand's SDK calls must carry: it marks
// them as this strand's, so they yield the baton while their requests are in
// flight. It carries no deadline; derive from it only with values.
func (s *Strand) Context() context.Context { return s.ctx }

// parkAwait is the conducted branch of Deployment.await: instead of joining
// taking the driver lock, the strand yields the baton with its completion
// attached and blocks until the orchestrator — having advanced the simulator
// far enough for the completion to fire — resumes it. The request's
// virtual-time expiry guarantees the completion fires, so conducted calls
// never hang and never time out at this layer (the op itself may still
// report ErrTimeout through its callback).
func (s *Strand) parkAwait(cpl *completion) {
	s.state = strandWaitDone
	s.cpl = cpl
	s.yielded <- struct{}{}
	<-s.resume
	s.cpl = nil
	<-cpl.ch
	// Not recycled here: await hands the fired completion back to the SDK
	// call, which harvests its result slots and recycles it.
}
