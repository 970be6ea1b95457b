package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"micropnp"
)

// opStats aggregates one operation kind's measure-window counters; all
// fields are concurrently updatable so realtime workers never contend on a
// lock.
type opStats struct {
	issued    atomic.Uint64
	completed atomic.Uint64
	errors    atomic.Uint64
	timeouts  atomic.Uint64
	hist      Histogram
}

// plan is one operation fully drawn from the schedule rng before execution,
// so realtime op goroutines never touch a shared random stream and the op
// schedule stays seed-deterministic in every mode.
type plan struct {
	op   Op
	tgt  *target
	wr   *target
	cl   *micropnp.Client
	val  int32
	disc micropnp.DeviceID
	// sink, when set, receives the held subscription a successful OpSubscribe
	// opens instead of the runner's shared list — the conducted zoned engine
	// points it at the issuing strand's own hold list so each strand services
	// its closes on its own timeline.
	sink *[]heldSub
}

// swapPending is one hot-swap awaiting the new peripheral's advertisement.
type swapPending struct {
	target *target
	newDev micropnp.DeviceID
	from   time.Duration
	rec    bool
	st     *opStats
}

// heldSub is an open subscription the virtual loop closes at closeAt; dep is
// the fleet member whose clock the close rides on (0 outside fleet runs).
type heldSub struct {
	sub     *micropnp.Subscription
	closeAt time.Duration
	dep     int
}

type pairKey struct {
	addr netip.Addr
	dev  micropnp.DeviceID
}

type runner struct {
	cfg Config
	// Single-deployment runs drive d directly; fleet runs (cfg.Deployments
	// > 1) drive deps through fleet instead and leave d nil — depClock
	// resolves the right clock either way.
	d         *micropnp.Deployment
	deps      []*micropnp.Deployment
	fleet     *micropnp.Fleet
	clients   []*micropnp.Client
	targets   []*target
	writables []*target

	failedMgr bool // ManagerFailAt already injected

	start        time.Duration // virtual time the workload begins
	measureStart time.Duration
	measureEnd   time.Duration

	stats   [opKinds]opStats
	shed    atomic.Uint64
	streams atomic.Uint64 // stream data deliveries

	inflight    atomic.Int64
	maxInflight atomic.Int64

	laneHash []uint64
	laneOps  []atomic.Uint64

	swapMu sync.Mutex
	swaps  map[netip.Addr]*swapPending

	// openSubs is the virtual loop's hold list (single goroutine, no lock);
	// realtime holds run on goroutines coordinated by subWG/stopCh.
	openSubs []heldSub
	subWG    sync.WaitGroup
	stopCh   chan struct{}

	pairMu sync.Mutex
	pairs  map[pairKey]*micropnp.Thing

	bufs sync.Pool // *[]int32 read scratch buffers

	drained bool
}

// Run executes one load run and returns its result. Virtual-mode runs are a
// pure function of cfg (bit-identical histograms for the same seed);
// realtime runs keep the op schedule deterministic but measure real
// latencies.
func Run(cfg Config) (*Result, error) {
	if cfg.Target != "" {
		return runHTTP(cfg)
	}
	_, res, err := run(cfg)
	return res, err
}

// run is Run exposing the runner, so tests can compare raw histogram
// buckets across repeated executions.
func run(cfg Config) (*runner, *Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	if cfg.Arrival == ArrivalOpen && cfg.Rate <= 0 {
		return nil, nil, fmt.Errorf("loadgen: open-loop runs need a positive rate")
	}
	r := &runner{
		cfg:    cfg,
		swaps:  map[netip.Addr]*swapPending{},
		pairs:  map[pairKey]*micropnp.Thing{},
		stopCh: make(chan struct{}),
	}
	r.bufs.New = func() any { b := make([]int32, 0, 8); return &b }
	lanes := 1
	if cfg.Arrival == ArrivalClosed {
		lanes = cfg.Workers
	}
	r.laneHash = make([]uint64, lanes)
	for i := range r.laneHash {
		r.laneHash[i] = fnvOffset
	}
	r.laneOps = make([]atomic.Uint64, lanes)

	var err error
	if cfg.Deployments > 1 {
		// Fleet mode: one deployment per site, federated behind a Fleet; the
		// fleet's own per-member clients carry the workload, so the runner
		// adds none of its own.
		r.deps = make([]*micropnp.Deployment, cfg.Deployments)
		for i := range r.deps {
			if r.deps[i], err = micropnp.NewDeployment(deployOpts(cfg, cfg.Seed+int64(i)*104729, i)...); err != nil {
				closeAll(r.deps[:i])
				return nil, nil, err
			}
		}
		defer closeAll(r.deps)
		if r.fleet, err = micropnp.NewFleet(r.deps...); err != nil {
			return nil, nil, err
		}
		if r.targets, r.writables, err = buildFleetTopology(r.deps, cfg); err != nil {
			return nil, nil, err
		}
		for _, d := range r.deps {
			d.Run() // drain every member's plug-in sequences
		}
		r.fleet.AddAdvertHook(r.onAdvert)
		// The workload origin is the slowest member's settle instant; the
		// conductor pulls the others level on the first arrival.
		for _, d := range r.deps {
			if now := d.Now(); now > r.start {
				r.start = now
			}
		}
	} else {
		d, derr := micropnp.NewDeployment(deployOpts(cfg, cfg.Seed, 0)...)
		if derr != nil {
			return nil, nil, derr
		}
		// Close in both modes: a virtual zoned deployment still holds its
		// sharded clock's worker pool, and through it the whole simulation.
		defer d.Close()
		r.d = d
		if r.targets, r.writables, err = buildTopology(d, cfg); err != nil {
			return nil, nil, err
		}
		r.clients = make([]*micropnp.Client, cfg.Clients)
		for i := range r.clients {
			if r.clients[i], err = d.AddClient(); err != nil {
				return nil, nil, err
			}
		}
		// Let every plug-in sequence (identify, OTA driver install, advertise)
		// drain before the workload starts; no streams are active yet, so Run
		// terminates in both modes.
		d.Run()
		r.clients[0].OnAdvert(r.onAdvert)
		r.start = d.Now()
	}
	r.measureStart = r.start + cfg.Warmup
	r.measureEnd = r.measureStart + cfg.Duration
	if cfg.Realtime {
		r.runRealtime()
	} else {
		r.runVirtual()
	}
	r.teardown()
	return r, r.result(), nil
}

// closeAll closes every deployment a run built.
func closeAll(deps []*micropnp.Deployment) {
	for _, d := range deps {
		d.Close()
	}
}

// deployOpts assembles one deployment's option list. Fleet members get their
// own site (hence a distinct /48 prefix for the fleet's routing) and a
// site-salted seed, so each member's loss/jitter streams differ while the
// whole fleet stays a deterministic function of cfg.Seed.
func deployOpts(cfg Config, seed int64, site int) []micropnp.Option {
	opts := []micropnp.Option{
		micropnp.WithSeed(seed),
		micropnp.WithStreamPeriod(cfg.StreamPeriod),
		micropnp.WithRequestTimeout(cfg.RequestTimeout),
	}
	if site > 0 {
		opts = append(opts, micropnp.WithSite(site))
	}
	if cfg.Managers > 1 {
		opts = append(opts, micropnp.WithManagers(cfg.Managers))
	}
	if cfg.LossRate > 0 {
		opts = append(opts, micropnp.WithLossRate(cfg.LossRate))
	}
	if cfg.InterpDrivers {
		opts = append(opts, micropnp.WithCompiledDrivers(false))
	}
	if cfg.Zones > 1 && !cfg.Realtime {
		opts = append(opts, micropnp.WithZones(cfg.Zones))
		if cfg.ShardWorkers > 0 {
			opts = append(opts, micropnp.WithShardWorkers(cfg.ShardWorkers))
		}
		if cfg.GlobalLookahead {
			opts = append(opts, micropnp.WithGlobalLookahead())
		}
	}
	if cfg.Realtime {
		opts = append(opts, micropnp.WithRealTime(), micropnp.WithTimeScale(cfg.TimeScale))
		if cfg.PoolWorkers > 0 {
			opts = append(opts, micropnp.WithWorkers(cfg.PoolWorkers))
		}
	}
	return opts
}

// depClock resolves the deployment whose virtual clock an event on fleet
// member dep rides on; single-deployment runs always answer r.d.
func (r *runner) depClock(dep int) *micropnp.Deployment {
	if r.fleet == nil {
		return r.d
	}
	return r.deps[dep]
}

// planDep names the fleet member a drawn plan executes against: the target's
// (or write target's) owner, or member 0 for client-side fan-outs (discover).
func (r *runner) planDep(p plan) int {
	switch {
	case p.tgt != nil:
		return p.tgt.dep
	case p.wr != nil:
		return p.wr.dep
	}
	return 0
}

// ---------------------------------------------------------------------------
// Schedule drawing

const fnvOffset = 14695981039346656037

func fnvMix(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// pickOp draws an operation kind by mix weight, in fixed kind order.
func (r *runner) pickOp(rng *rand.Rand) Op {
	w := rng.Intn(r.cfg.Mix.total())
	for op, weight := range r.cfg.Mix {
		if weight == 0 {
			continue
		}
		if w < weight {
			return Op(op)
		}
		w -= weight
	}
	return OpRead // unreachable
}

// drawPlan draws one operation and folds it into the lane's schedule hash
// (open lanes include the intended arrival instant; closed lanes hash the
// sequence only, since their instants depend on completion times).
func (r *runner) drawPlan(rng *rand.Rand, lane int, intended time.Duration, openLane bool) plan {
	p := plan{op: r.pickOp(rng)}
	tgtIdx, wrIdx, clIdx := -1, -1, 0
	switch p.op {
	case OpWrite:
		wrIdx = rng.Intn(len(r.writables))
		p.wr = r.writables[wrIdx]
		p.val = int32(rng.Intn(256))
		clIdx = p.wr.idx % r.cfg.Clients
	case OpDiscover:
		p.disc = sensorCycle[rng.Intn(len(sensorCycle))]
		clIdx = rng.Intn(r.cfg.Clients)
	default:
		tgtIdx = rng.Intn(len(r.targets))
		p.tgt = r.targets[tgtIdx]
		clIdx = tgtIdx % r.cfg.Clients
	}
	// Fleet runs carry every op through the fleet's own per-member clients;
	// the drawn client index still folds into the schedule hash so single-
	// and fleet-mode schedules stay comparable draw for draw.
	if r.fleet == nil {
		p.cl = r.clients[clIdx]
	}
	h := fnvMix(r.laneHash[lane], uint64(p.op), uint64(tgtIdx+1), uint64(wrIdx+1), uint64(clIdx))
	if openLane {
		// Hash the offset from the workload start: the absolute instant the
		// settle phase ends at differs between clock modes, the drawn gaps
		// do not — so one schedule hashes identically in both.
		h = fnvMix(h, uint64(intended-r.start))
	}
	r.laneHash[lane] = h
	return p
}

// interarrival draws the next open-loop gap.
func (r *runner) interarrival(rng *rand.Rand) time.Duration {
	if r.cfg.Process == ProcessFixed {
		return time.Duration(float64(time.Second) / r.cfg.Rate)
	}
	return time.Duration(rng.ExpFloat64() / r.cfg.Rate * float64(time.Second))
}

// laneRng seeds one lane's private random stream.
func (r *runner) laneRng(lane int) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.Seed + int64(lane)*7919))
}

// recordable reports whether an operation charged to virtual instant t
// belongs to the measure window.
func (r *runner) recordable(t time.Duration) bool {
	return t >= r.measureStart && t < r.measureEnd
}

// ---------------------------------------------------------------------------
// Operation execution (both modes)

// exec performs one drawn operation. Open-loop latency is charged from the
// intended arrival instant (counting backlog delay — the coordinated
// omission correction); closed-loop latency from the actual issue time. The
// op's clock is its target's deployment — in fleet runs each member keeps its
// own virtual timeline and ops route through the fleet surface. ctx is the
// op's SDK context: context.Background, or the issuing strand's context in
// the conducted engine.
func (r *runner) exec(ctx context.Context, lane int, p plan, intended time.Duration, openLoop bool) {
	d := r.depClock(r.planDep(p))
	from := d.Now()
	if openLoop {
		from = intended
	}
	rec := r.recordable(from)
	st := &r.stats[p.op]
	if rec {
		st.issued.Add(1)
		r.laneOps[lane].Add(1)
	}
	switch p.op {
	case OpRead:
		buf := r.bufs.Get().(*[]int32)
		var rd micropnp.Reading
		var err error
		if r.fleet != nil {
			rd, err = r.fleet.ReadInto(ctx, p.tgt.addr, p.tgt.device(), *buf)
		} else {
			rd, err = p.cl.ReadInto(ctx, p.tgt.addr, p.tgt.device(), *buf)
		}
		if err == nil && rd.Values != nil {
			*buf = rd.Values[:0] // recycle the (possibly grown) scratch
		}
		r.bufs.Put(buf)
		r.finish(d, st, rec, from, err)
	case OpWrite:
		var err error
		if r.fleet != nil {
			err = r.fleet.Write(ctx, p.wr.addr, micropnp.Relay, []int32{p.val})
		} else {
			err = p.cl.Write(ctx, p.wr.addr, micropnp.Relay, []int32{p.val})
		}
		r.finish(d, st, rec, from, err)
	case OpDiscover:
		var err error
		if r.fleet != nil {
			_, err = r.fleet.Discover(ctx, p.disc)
		} else {
			_, err = p.cl.Discover(ctx, p.disc)
		}
		r.finish(d, st, rec, from, err)
	case OpSubscribe:
		var sub *micropnp.Subscription
		var err error
		if r.fleet != nil {
			sub, err = r.fleet.Subscribe(ctx, p.tgt.addr, p.tgt.device(), r.onReading)
		} else {
			sub, err = p.cl.Subscribe(ctx, p.tgt.addr, p.tgt.device(), r.onReading)
		}
		r.finish(d, st, rec, from, err)
		if err == nil {
			r.pairMu.Lock()
			r.pairs[pairKey{p.tgt.addr, sub.Device()}] = p.tgt.thing
			r.pairMu.Unlock()
			if p.sink != nil {
				*p.sink = append(*p.sink, heldSub{sub: sub, closeAt: d.Now() + r.cfg.SubHold})
			} else {
				r.holdSub(sub, p.tgt.dep)
			}
		}
	case OpDrivers:
		_, err := d.DiscoverDrivers(ctx, p.tgt.thing)
		r.finish(d, st, rec, from, err)
	case OpHotSwap:
		r.execHotSwap(st, p, rec, from)
	}
}

// finish records one synchronous operation outcome; d is the deployment clock
// the op completed on.
func (r *runner) finish(d *micropnp.Deployment, st *opStats, rec bool, from time.Duration, err error) {
	if !rec {
		return
	}
	switch {
	case err == nil:
		st.completed.Add(1)
		st.hist.Record(int64(d.Now() - from))
	case errors.Is(err, micropnp.ErrTimeout):
		st.timeouts.Add(1)
	default:
		st.errors.Add(1)
	}
}

func (r *runner) onReading(micropnp.Reading) { r.streams.Add(1) }

// claimSwapTarget probes forward from the drawn target for one with no swap
// in flight and claims it.
func (r *runner) claimSwapTarget(start *target) *target {
	n := len(r.targets)
	for k := 0; k < n; k++ {
		t := r.targets[(start.idx+k)%n]
		t.mu.Lock()
		if !t.swapping {
			t.swapping = true
			t.mu.Unlock()
			return t
		}
		t.mu.Unlock()
	}
	return nil
}

// execHotSwap unplugs the target's sensor and plugs the next kind in the
// cycle; completion (and the latency sample) is recorded by onAdvert when
// the new peripheral's advertisement arrives.
func (r *runner) execHotSwap(st *opStats, p plan, rec bool, from time.Duration) {
	t := r.claimSwapTarget(p.tgt)
	if t == nil {
		if rec {
			st.errors.Add(1)
		}
		return
	}
	t.mu.Lock()
	old := t.dev
	t.mu.Unlock()
	var newDev micropnp.DeviceID
	for i, dev := range sensorCycle {
		if dev == old {
			newDev = sensorCycle[(i+1)%len(sensorCycle)]
		}
	}
	r.swapMu.Lock()
	r.swaps[t.addr] = &swapPending{target: t, newDev: newDev, from: from, rec: rec, st: st}
	r.swapMu.Unlock()
	err := t.thing.Unplug(0)
	if err == nil {
		err = plugDevice(t.thing, newDev)
	}
	if err != nil {
		r.swapMu.Lock()
		delete(r.swaps, t.addr)
		r.swapMu.Unlock()
		t.mu.Lock()
		t.swapping = false
		t.mu.Unlock()
		if rec {
			st.errors.Add(1)
		}
	}
}

func plugDevice(th *micropnp.Thing, dev micropnp.DeviceID) error {
	switch dev {
	case micropnp.TMP36:
		return th.PlugTMP36(0)
	case micropnp.HIH4030:
		return th.PlugHIH4030(0)
	case micropnp.BMP180:
		return th.PlugBMP180(0)
	}
	return fmt.Errorf("loadgen: no plug helper for device %v", dev)
}

// onAdvert resolves in-flight hot-swaps: the unsolicited advertisement of
// the newly plugged peripheral completes the swap and samples its latency.
func (r *runner) onAdvert(ad micropnp.Advert) {
	if ad.Solicited {
		return
	}
	r.swapMu.Lock()
	sp, ok := r.swaps[ad.Thing]
	if !ok || sp.newDev != ad.Device {
		r.swapMu.Unlock()
		return
	}
	delete(r.swaps, ad.Thing)
	r.swapMu.Unlock()
	sp.target.mu.Lock()
	sp.target.dev = sp.newDev
	sp.target.swapping = false
	sp.target.mu.Unlock()
	if sp.rec {
		sp.st.completed.Add(1)
		sp.st.hist.Record(int64(r.depClock(sp.target.dep).Now() - sp.from))
	}
}

// holdSub keeps a freshly established subscription open for SubHold of
// virtual time: the virtual loop services the close inline on its timeline
// (dep names the owning fleet member's clock), realtime mode parks a
// goroutine (cancelled at teardown via stopCh).
func (r *runner) holdSub(sub *micropnp.Subscription, dep int) {
	if !r.cfg.Realtime {
		r.openSubs = append(r.openSubs, heldSub{sub: sub, closeAt: r.depClock(dep).Now() + r.cfg.SubHold, dep: dep})
		return
	}
	r.subWG.Add(1)
	go func() {
		defer r.subWG.Done()
		select {
		case <-time.After(r.wallOf(r.cfg.SubHold)):
		case <-r.stopCh:
		}
		sub.Close()
	}()
}

// enterOp/leaveOp maintain the in-flight gauge and its high-water mark.
func (r *runner) enterOp() {
	n := r.inflight.Add(1)
	for {
		m := r.maxInflight.Load()
		if n <= m || r.maxInflight.CompareAndSwap(m, n) {
			return
		}
	}
}

func (r *runner) leaveOp() { r.inflight.Add(-1) }

// ---------------------------------------------------------------------------
// Virtual mode: the whole run plays out on the simulated timeline, so
// latencies are exact virtual-time spans and the run is bit-for-bit
// reproducible; worker counts shape only the schedule. Non-zoned runs
// execute operations one at a time from a single loop; zoned open-loop runs
// divert to the conducted engine below, which overlaps ops across lane
// groups while staying deterministic.

// advanceTo drives the simulation to virtual instant t, servicing
// subscription closes that fall due on the way. Each close rides its own
// deployment's clock; fleet runs then pull every member level via the
// conductor.
func (r *runner) advanceTo(t time.Duration) {
	for {
		due := -1
		for i, hs := range r.openSubs {
			if hs.closeAt <= t && (due < 0 || hs.closeAt < r.openSubs[due].closeAt) {
				due = i
			}
		}
		if due < 0 {
			break
		}
		hs := r.openSubs[due]
		last := len(r.openSubs) - 1
		r.openSubs[due] = r.openSubs[last]
		r.openSubs = r.openSubs[:last]
		dd := r.depClock(hs.dep)
		if now := dd.Now(); now < hs.closeAt {
			dd.RunFor(hs.closeAt - now)
		}
		hs.sub.Close()
	}
	if r.fleet != nil {
		r.conductTo(t)
		return
	}
	if now := r.d.Now(); now < t {
		r.d.RunFor(t - now)
	}
}

// conductorQuantum bounds one conductor step: no member clock runs more than
// this far ahead of the laggard while the fleet advances to a common instant.
const conductorQuantum = 250 * time.Millisecond

// conductTo is the fleet conductor: it steps every member deployment's
// virtual clock to instant t round-robin in bounded quanta (member 0 a
// quantum, member 1 a quantum, ... until all reach t). The deployments share
// no simulated links, so the interleave cannot change any member's event
// order — it only keeps the clocks from drifting apart between workload
// arrivals, and the fixed member order keeps the walk deterministic.
func (r *runner) conductTo(t time.Duration) {
	for {
		behind := false
		for _, d := range r.deps {
			now := d.Now()
			if now >= t {
				continue
			}
			step := t - now
			if step > conductorQuantum {
				step = conductorQuantum
				behind = true
			}
			d.RunFor(step)
		}
		if !behind {
			return
		}
	}
}

func (r *runner) runVirtual() {
	if r.cfg.Arrival == ArrivalOpen {
		// Fleet runs always use the sequential arrival loop below — each
		// member may still shard internally (Zones > 1), but the conductor
		// stays one goroutine; only the single-deployment zoned run diverts
		// to the conducted strand engine.
		if r.cfg.Zones > 1 && r.fleet == nil {
			r.runConducted()
			return
		}
		rng := r.laneRng(0)
		next := r.start + r.interarrival(rng)
		for next < r.measureEnd {
			r.maybeFailManager(next)
			r.advanceTo(next)
			p := r.drawPlan(rng, 0, next, true)
			r.enterOp()
			r.exec(context.Background(), 0, p, next, true)
			r.leaveOp()
			next += r.interarrival(rng)
		}
		return
	}
	lanes := r.cfg.Workers
	rngs := make([]*rand.Rand, lanes)
	nextFree := make([]time.Duration, lanes)
	for w := range rngs {
		rngs[w] = r.laneRng(w)
		nextFree[w] = r.start
	}
	for {
		w := 0
		for i := 1; i < lanes; i++ {
			if nextFree[i] < nextFree[w] {
				w = i
			}
		}
		if nextFree[w] >= r.measureEnd {
			return
		}
		r.advanceTo(nextFree[w])
		p := r.drawPlan(rngs[w], w, 0, false)
		r.enterOp()
		r.exec(context.Background(), w, p, 0, false)
		r.leaveOp()
		nextFree[w] = r.d.Now() + r.cfg.Think
	}
}

// maybeFailManager injects the configured manager crash: once the next
// arrival passes the ManagerFailAt offset, the clocks are conducted to
// exactly that instant and manager 0 of deployment 0 is crashed. Pinning the
// crash to a virtual instant (not an arrival index) makes the failover's
// latency effects land identically in every run of the config.
func (r *runner) maybeFailManager(next time.Duration) {
	if r.cfg.ManagerFailAt <= 0 || r.failedMgr {
		return
	}
	failAt := r.start + r.cfg.ManagerFailAt
	if next < failAt {
		return
	}
	r.failedMgr = true
	r.advanceTo(failAt)
	// normalize guarantees Managers >= 2, so instance 0 exists and a
	// survivor remains; FailManager cannot fail here.
	_ = r.depClock(0).FailManager(0)
}

// ---------------------------------------------------------------------------
// Conducted zoned mode: open-loop arrivals on a sharded (zoned) simulator are
// issued from one cooperative strand per lane group instead of a single
// thread feeding all lanes, so ops bound for different zones overlap in
// flight between barrier rounds. Determinism is preserved on two legs:
//
//   - The whole schedule is pre-drawn from the single open-loop rng in
//     exactly the sequential engine's draw order (interarrival, plan,
//     interarrival, ...), so the schedule hash and rng consumption are
//     byte-identical to the non-zoned engine by construction.
//   - Deployment.Conduct interleaves strands purely by strand index, virtual
//     time, and completion state, so the run is bit-reproducible across
//     worker counts and driver engines.

// arrival is one pre-drawn open-loop operation and its intended instant.
type arrival struct {
	p  plan
	at time.Duration
}

// strandGroup maps a drawn plan to its issuing strand: target-bearing ops
// group by the target zone's clock lane (zone % Zones — mirroring the
// simulator's zone-to-lane fold), client-side ops (discover) to group 0.
func (r *runner) strandGroup(p plan) int {
	switch {
	case p.wr != nil:
		return int(p.wr.zone) % r.cfg.Zones
	case p.tgt != nil:
		return int(p.tgt.zone) % r.cfg.Zones
	}
	return 0
}

func (r *runner) runConducted() {
	// Pre-draw the full schedule; rng draw order matches the sequential
	// open-loop engine exactly.
	rng := r.laneRng(0)
	groups := make([][]arrival, r.cfg.Zones)
	next := r.start + r.interarrival(rng)
	for next < r.measureEnd {
		p := r.drawPlan(rng, 0, next, true)
		g := r.strandGroup(p)
		groups[g] = append(groups[g], arrival{p: p, at: next})
		next += r.interarrival(rng)
	}
	fns := make([]func(*micropnp.Strand), 0, len(groups))
	for _, arr := range groups {
		if len(arr) == 0 {
			continue
		}
		arr := arr
		fns = append(fns, func(s *micropnp.Strand) { r.strandLoop(s, arr) })
	}
	r.d.Conduct(fns...)
}

// strandLoop plays one lane group's arrivals in time order, interleaving the
// closes of the subscriptions this strand opened. Ops are charged to lane 0
// like the sequential engine (the schedule is one open-loop lane; strands are
// an execution detail), so LaneOps and the schedule hash are unchanged.
func (r *runner) strandLoop(s *micropnp.Strand, arr []arrival) {
	var subs []heldSub
	for i := range arr {
		a := &arr[i]
		r.serviceStrandSubs(s, &subs, a.at)
		s.Until(a.at)
		a.p.sink = &subs
		r.enterOp()
		r.exec(s.Context(), 0, a.p, a.at, true)
		r.leaveOp()
	}
	// Hand leftover holds to the shared list for teardown; strands run one at
	// a time under the Conduct baton, so the append is ordered.
	r.openSubs = append(r.openSubs, subs...)
}

// serviceStrandSubs closes this strand's held subscriptions falling due at or
// before limit, earliest first, parking until each close instant.
func (r *runner) serviceStrandSubs(s *micropnp.Strand, subs *[]heldSub, limit time.Duration) {
	for {
		due := -1
		for i, hs := range *subs {
			if hs.closeAt <= limit && (due < 0 || hs.closeAt < (*subs)[due].closeAt) {
				due = i
			}
		}
		if due < 0 {
			return
		}
		hs := (*subs)[due]
		last := len(*subs) - 1
		(*subs)[due] = (*subs)[last]
		*subs = (*subs)[:last]
		s.Until(hs.closeAt)
		hs.sub.Close()
	}
}

// ---------------------------------------------------------------------------
// Realtime mode: genuinely concurrent execution against the wall-clock
// runtime.

// wallOf converts a virtual span to wall time.
func (r *runner) wallOf(span time.Duration) time.Duration {
	return time.Duration(float64(span) / r.cfg.TimeScale)
}

// waitVirtual sleeps until the deployment clock reaches virtual instant t.
func (r *runner) waitVirtual(t time.Duration) {
	for {
		now := r.d.Now()
		if now >= t {
			return
		}
		wall := r.wallOf(t - now)
		if wall < 50*time.Microsecond {
			wall = 50 * time.Microsecond
		}
		time.Sleep(wall)
	}
}

func (r *runner) runRealtime() {
	var wg sync.WaitGroup
	if r.cfg.Arrival == ArrivalOpen {
		rng := r.laneRng(0)
		next := r.start + r.interarrival(rng)
		for next < r.measureEnd {
			r.waitVirtual(next)
			// The plan is drawn for every arrival — shed or not — so the
			// schedule hash covers the whole arrival process.
			p := r.drawPlan(rng, 0, next, true)
			if r.inflight.Load() >= int64(r.cfg.MaxInFlight) {
				if r.recordable(next) {
					r.shed.Add(1)
				}
			} else {
				wg.Add(1)
				intended := next
				go func() {
					defer wg.Done()
					r.enterOp()
					defer r.leaveOp()
					r.exec(context.Background(), 0, p, intended, true)
				}()
			}
			next += r.interarrival(rng)
		}
	} else {
		for w := 0; w < r.cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := r.laneRng(w)
				think := r.wallOf(r.cfg.Think)
				for {
					if r.d.Now() >= r.measureEnd {
						return
					}
					p := r.drawPlan(rng, w, 0, false)
					r.enterOp()
					r.exec(context.Background(), w, p, 0, false)
					r.leaveOp()
					select {
					case <-time.After(think):
					case <-r.stopCh:
						return
					}
				}
			}(w)
		}
	}
	// Give in-flight operations the cooldown to finish; every request is
	// deadline-bounded, so this converges.
	waitTimeout(&wg, r.wallOf(r.cfg.Cooldown))
}

func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// ---------------------------------------------------------------------------
// Teardown and result assembly

// teardown closes every subscription, stops the streams the workload
// started (Things keep producing until told to stop, so the network could
// otherwise never quiesce), lets outstanding work drain inside the cooldown
// horizon, and resolves still-pending hot-swaps as timeouts.
func (r *runner) teardown() {
	close(r.stopCh)
	if !r.cfg.Realtime {
		r.advanceTo(r.measureEnd)
		for _, hs := range r.openSubs {
			hs.sub.Close()
		}
		r.openSubs = nil
	} else {
		waitTimeout(&r.subWG, r.wallOf(r.cfg.SubHold)+time.Second)
	}
	// Stop the streams in deterministic order (map iteration is not).
	r.pairMu.Lock()
	keys := make([]pairKey, 0, len(r.pairs))
	for k := range r.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr.Less(keys[j].addr)
		}
		return keys[i].dev < keys[j].dev
	})
	things := make([]*micropnp.Thing, len(keys))
	for i, k := range keys {
		things[i] = r.pairs[k]
	}
	r.pairMu.Unlock()
	for i, k := range keys {
		things[i].StopStream(k.dev)
	}
	if r.fleet != nil {
		r.drained = r.fleet.Quiesce(r.cfg.Cooldown)
	} else {
		r.drained = r.d.Quiesce(r.cfg.Cooldown)
	}
}

func (r *runner) result() *Result {
	res := &Result{
		Scenario:   r.cfg.Scenario,
		Mode:       "virtual",
		Seed:       r.cfg.Seed,
		Things:     r.cfg.Things,
		Shape:      string(r.cfg.Shape),
		Clients:    r.cfg.Clients,
		Arrival:    r.cfg.Arrival.String(),
		Mix:        r.cfg.Mix.String(),
		WarmupNs:   int64(r.cfg.Warmup),
		MeasureNs:  int64(r.cfg.Duration),
		CooldownNs: int64(r.cfg.Cooldown),
		Shed:       r.shed.Load(),
		Drained:    r.drained,
		Ops:        map[string]*OpResult{},
	}
	if r.cfg.Realtime {
		res.Mode = "realtime"
		res.TimeScale = r.cfg.TimeScale
	} else {
		res.Zones = r.cfg.Zones
	}
	if r.cfg.Deployments > 1 {
		res.Deployments = r.cfg.Deployments
	}
	if r.cfg.Managers > 1 {
		res.Managers = r.cfg.Managers
	}
	res.ManagerFailNs = int64(r.cfg.ManagerFailAt)
	if r.cfg.Arrival == ArrivalOpen {
		res.Process = r.cfg.Process.String()
		res.RatePerSec = r.cfg.Rate
	} else {
		res.Workers = r.cfg.Workers
		res.ThinkNs = int64(r.cfg.Think)
	}
	// Unresolved hot-swaps never saw their advertisement: charge them as
	// timeouts.
	r.swapMu.Lock()
	for _, sp := range r.swaps {
		res.Unresolved++
		if sp.rec {
			sp.st.timeouts.Add(1)
		}
	}
	r.swaps = map[netip.Addr]*swapPending{}
	r.swapMu.Unlock()

	hash := uint64(0)
	for _, h := range r.laneHash {
		hash ^= h
	}
	res.ScheduleHash = fmt.Sprintf("%016x", hash)
	res.LaneOps = make([]uint64, len(r.laneOps))
	for i := range r.laneOps {
		res.LaneOps[i] = r.laneOps[i].Load()
	}
	res.StreamReadings = r.streams.Load()
	res.MaxInFlight = r.maxInflight.Load()
	var ns micropnp.NetworkStats
	if r.fleet != nil {
		ns = r.fleet.Stats()
	} else {
		ns = r.d.NetworkStats()
	}
	if ns.ShardLanes > 0 {
		res.Shard = &ShardTelemetry{
			Lanes:               ns.ShardLanes,
			Rounds:              ns.ShardRounds,
			Events:              ns.ShardEvents,
			LaneRounds:          ns.ShardLaneRounds,
			CrossMerged:         ns.ShardCrossMerged,
			CausalityViolations: ns.ShardCausalityViolations,
		}
	}

	secs := r.cfg.Duration.Seconds()
	for op := range r.stats {
		if r.cfg.Mix[op] == 0 {
			continue
		}
		st := &r.stats[op]
		o := &OpResult{
			Issued:   st.issued.Load(),
			Count:    st.completed.Load(),
			Errors:   st.errors.Load(),
			Timeouts: st.timeouts.Load(),
			MeanNs:   st.hist.Mean(),
			P50Ns:    st.hist.Quantile(0.50),
			P90Ns:    st.hist.Quantile(0.90),
			P99Ns:    st.hist.Quantile(0.99),
			P999Ns:   st.hist.Quantile(0.999),
			MaxNs:    st.hist.Max(),
		}
		if secs > 0 {
			o.ThroughputPerSec = float64(o.Count) / secs
		}
		res.Ops[Op(op).String()] = o
		res.Issued += o.Issued
		res.Completed += o.Count
		res.Errors += o.Errors
		res.Timeouts += o.Timeouts
	}
	return res
}
