package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"micropnp"
)

// sdk-read: one goroutine runs a closed loop of public Client.ReadInto
// calls on the virtual clock, with no loss, over a seeded order of targets
// in a population of a few hundred Things. It is the shortest user path:
// the SDK await/pump, the client pending table, netsim unicast, Thing
// dispatch, the VM and proto do nearly all the work; multicast, the
// sharded clock, the manager, the catalog and HTTP do none.

type sizes struct {
	things   int // population
	setups   int // set-ups timed per run; setup_s is their median
	warm     int // ops before anything is measured
	exact    int // fixed-count ops for allocs_per_op and virt_p50_ms
	probeOps int // ops per block in the traced comparisons
}

func sdkSizes(c *config) sizes {
	if c.tiny {
		return sizes{things: 24, setups: 2, warm: 50, exact: 200, probeOps: 200}
	}
	return sizes{things: 320, setups: 45, warm: 2000, exact: 20000, probeOps: 20000}
}

// timeSetups runs build k times, each after a collection and a
// calibration sample, and reports setup_s: the median wall time scaled by
// the level factor of those samples, the host the set-ups saw. The caller
// keeps what the last build produced.
func (r *report) timeSetups(k int, build func() error) error {
	cal := newCalibrator()
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		cal.sample()
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	r.setSetup(median(out), cal.levelFactor())
	return nil
}

// sdkReader issues one seeded read at a time through the public SDK and
// checks each reading.
type sdkReader struct {
	pop *sdkPop
	e   env
	ord []int32
	pos int
	buf []int32
	r   *report
	ctx context.Context
	tr  *tracer // nil when untraced
	k   uint16
	op  uint32
}

func newSDKReader(pop *sdkPop, e env, seed int64, r *report, tr *tracer) *sdkReader {
	return &sdkReader{pop: pop, e: e, ord: order(seed, len(pop.targets), 1<<16), r: r, ctx: context.Background(),
		tr: tr, k: tr.kind("sdk.read")}
}

// read performs the next read and returns its virtual latency.
func (s *sdkReader) read() time.Duration {
	t := s.pop.targets[s.ord[s.pos]]
	s.pos = (s.pos + 1) & (len(s.ord) - 1)
	id := sensorKinds[t.kind].id
	s.r.attempted++
	s.op++
	before := s.pop.d.Now()
	sp := s.tr.begin(s.k, s.op, -1)
	rd, err := s.pop.cl.ReadInto(s.ctx, t.addr, id, s.buf)
	s.tr.end(sp)
	if err != nil {
		if errors.Is(err, micropnp.ErrTimeout) {
			s.r.timeouts++
		}
		s.r.opFailed("read %s %s: %v", t.addr, sensorKinds[t.kind].name, err)
		return 0
	}
	s.buf = rd.Values
	if rd.Thing != t.addr || rd.Device != id {
		s.r.checkFailed("read %s %v answered as %s %v", t.addr, id, rd.Thing, rd.Device)
	} else if err := s.e.checkValues(t.kind, rd.Values); err != nil {
		s.r.checkFailed("%s: %v", t.addr, err)
	}
	return rd.At - before
}

// exactPhase runs n ops with one P and the collector off, so the
// allocation count is a pure function of the op sequence. Two collections
// first empty every sync.Pool: an object left in another P's private slot
// could not be reached from the one P, and whether one is left there
// depends on where the scheduler ran the caller. It returns allocations
// per op and each op's virtual latency.
func exactPhase(n int, op func() time.Duration) (allocsPerOp float64, virt []float64) {
	virt = make([]float64, 0, n)
	prevProcs := runtime.GOMAXPROCS(1)
	runtime.GC()
	runtime.GC()
	prevGC := debug.SetGCPercent(-1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		virt = append(virt, float64(op())/1e6)
	}
	runtime.ReadMemStats(&m1)
	debug.SetGCPercent(prevGC)
	runtime.GOMAXPROCS(prevProcs)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), virt
}

// liveHeapMB collects and returns the live heap in MB. The second cycle
// frees what the first left in sync.Pool victim caches.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func runSDKRead(c *config, r *report) error {
	sz := sdkSizes(c)
	e := envFromSeed(c.seed)
	var pop *sdkPop
	if err := r.timeSetups(sz.setups, func() error {
		var err error
		pop, err = buildSDK(sz.things, e, false, nil)
		return err
	}); err != nil {
		return err
	}
	rd := newSDKReader(pop, e, c.seed, r, nil)
	for i := 0; i < sz.warm; i++ {
		rd.read()
	}
	allocs, virt := exactPhase(sz.exact, rd.read)
	r.set("allocs_per_op", allocs)
	r.set("virt_p50_ms", median(virt))

	attempted0, failed0 := r.attempted, r.failed
	cal := newCalibrator()
	var h hist
	n := 0
	work := segmented(c.window(), cal, func(deadline time.Time) {
		t0 := time.Now()
		for t0.Before(deadline) {
			rd.read()
			t1 := time.Now()
			h.record(t1.Sub(t0))
			n++
			t0 = t1
		}
	})
	r.set("ops_per_s", float64(n)/work.Seconds())
	r.set("op_p50_us", h.quantileUS(0.5))
	r.set("op_p90_us", h.quantileUS(0.9))
	r.set("ok_ratio", 1-float64(r.failed-failed0)/float64(r.attempted-attempted0))
	cal.release()
	r.set("heap_mb", liveHeapMB())
	r.scaleWallTimes(cal, cal.segmentFactor(), cal.levelFactor())
	runtime.KeepAlive(pop)
	return nil
}

// Per-layer metrics a workload's path does not cross.
var (
	shardMetrics = []string{"netsim.shard_events_per_round", "netsim.shard_lane_occupancy",
		"netsim.shard_cross_merged_per_op", "netsim.shard_causality_violations", "netsim.shard_speedup"}
	gatewayMetrics = []string{"gateway.handler_us.read", "gateway.handler_us.write", "gateway.handler_us.list",
		"gateway.transport_us", "catalog.list_us"}
	loadgenMetrics = []string{"loadgen.issued", "loadgen.stream_readings", "loadgen.max_in_flight", "loadgen.retained_mb_per_run"}
)

// loopUntil runs op until deadline and returns the op count.
func loopUntil(op func() time.Duration) func(deadline time.Time) int {
	return func(deadline time.Time) int {
		n := 0
		for time.Now().Before(deadline) {
			op()
			n++
		}
		return n
	}
}

// finishTrace prints the self-time table and writes the spans out.
func finishTrace(c *config, r *report, tr *tracer) error {
	tr.printSelfTimes(r.out)
	if c.traceOut == "" {
		return nil
	}
	file := fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed)
	if err := tr.writeOut(c.traceOut, file); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.logf("spans written to %s", filepath.Join(c.traceOut, file))
	return nil
}

func traceSDKRead(c *config, r *report) error {
	sz := sdkSizes(c)
	e := envFromSeed(c.seed)
	tr := newTracer()
	pop, err := buildSDK(sz.things, e, false, nil)
	if err != nil {
		return err
	}
	rd := newSDKReader(pop, e, c.seed, r, tr)
	for i := 0; i < sz.warm; i++ {
		rd.read()
	}
	untraced := func(deadline time.Time) int { rd.tr = nil; return loopUntil(rd.read)(deadline) }
	traced := func(deadline time.Time) int { rd.tr = tr; return loopUntil(rd.read)(deadline) }

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns0, v0, t0 := pop.d.NetworkStats(), pop.d.Now(), time.Now()
	ops := alternate(r, c.window(), 4, untraced, traced)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	netDelta(r, ns0, pop.d.NetworkStats(), ops)
	runtimeDelta(r, &m0, &m1, ops)
	r.set("netsim.virt_s_per_wall_s", (pop.d.Now()-v0).Seconds()/wall.Seconds())
	r.set("client.timeouts_per_kop", 1000*float64(r.timeouts)/float64(ops))

	cp, err := buildCore(sz.things, e)
	if err != nil {
		return err
	}
	compareSDK(sz, e, c.seed, r, tr, pop, cp)
	if err := probeMicro(c, r, tr, cp); err != nil {
		return err
	}
	hostFactor(r, 5)
	r.skip("one deployment on the single-loop clock", shardMetrics...)
	r.skip("no gateway on this path", gatewayMetrics...)
	r.skip("no loadgen on this path", loadgenMetrics...)
	return finishTrace(c, r, tr)
}
