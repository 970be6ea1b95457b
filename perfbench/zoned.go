package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"time"

	"micropnp/internal/loadgen"
)

// sim-zoned: loadgen.Run of the zoned preset as it ships — 240 Things in
// 8 zones, 2% loss, the full op mix, open-loop Poisson arrivals, the
// default shard workers — repeated until the window has passed. The
// sharded clock, multicast fan-out, hot-swap (identification, manager
// upload, driver install), loss with ARQ and the loadgen conductor do most
// of the work; per-op SDK cost is small. Results are bit-deterministic per
// seed, so every run of a set must agree.
//
// Each run executes in a child process of its own. A virtual loadgen.Run
// never closes its deployment, and the sharded clock's goroutines keep it
// reachable, so runs sharing a process would pile up about 7 MB of heap
// each (EVIDENCE.md) and every later run would collect a larger heap. The
// preset is not lengthened either: longer runs shift its outcome mix, as
// hot-swaps move peripherals away from the Things later ops target.

// childEnv carries a child's job; a process started with it set runs that
// one job instead of the benchmark.
const childEnv = "PERFBENCH_ZONED_CHILD"

// childJob is what a child process runs: one timed loadgen.Run, then,
// when setup is set, one timed run of the preset's set-up alone.
type childJob struct {
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"` // shard workers, 0 = the default
	Tiny    bool  `json:"tiny"`
	Setup   bool  `json:"setup"`
}

// childOut is what a child reports back on its standard output.
type childOut struct {
	StartNs    int64           `json:"start_ns"` // Unix ns around loadgen.Run
	EndNs      int64           `json:"end_ns"`
	SetupNs    int64           `json:"setup_ns"`
	Mallocs    uint64          `json:"mallocs"` // runtime deltas over loadgen.Run
	TotalAlloc uint64          `json:"total_alloc"`
	NumGC      uint32          `json:"num_gc"`
	PauseNs    uint64          `json:"pause_ns"`
	PeakMB     float64         `json:"peak_mb"`
	RetainedMB float64         `json:"retained_mb"`
	Result     json.RawMessage `json:"result"`
	// Shard travels beside Result, whose JSON leaves it out.
	Shard *loadgen.ShardTelemetry `json:"shard"`
}

func zonedConfig(seed int64, tiny bool) (loadgen.Config, error) {
	cfg, err := loadgen.Preset("zoned")
	if err != nil {
		return cfg, err
	}
	cfg.Seed = seed
	if tiny {
		cfg.Things, cfg.Zones = 32, 4
		cfg.Duration = 20 * time.Second
	}
	return cfg, nil
}

// zonedSetupConfig is the same deployment with a 1 ns window and an arrival
// rate so low that no op arrives: a run of it is the preset's set-up —
// topology, plug-in of every peripheral, identification, OTA driver
// installs and advertisement — plus a trivial drain.
func zonedSetupConfig(cfg loadgen.Config) loadgen.Config {
	cfg.Warmup, cfg.Duration, cfg.Cooldown = 0, time.Nanosecond, time.Nanosecond
	cfg.Rate = 1e-9
	return cfg
}

// runChild runs the job in the environment variable and prints its
// childOut. The set-up run comes after the timed one, so the timed run
// starts from an empty heap.
func runChild(spec string, out io.Writer) error {
	var job childJob
	if err := json.Unmarshal([]byte(spec), &job); err != nil {
		return err
	}
	cfg, err := zonedConfig(job.Seed, job.Tiny)
	if err != nil {
		return err
	}
	cfg.ShardWorkers = job.Workers
	heap0 := liveHeapMB()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := startHeapPeak()
	t0 := time.Now()
	res, err := loadgen.Run(cfg)
	t1 := time.Now()
	o := childOut{StartNs: t0.UnixNano(), EndNs: t0.UnixNano() + int64(t1.Sub(t0)), PeakMB: peak.end()}
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	o.Mallocs, o.TotalAlloc = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	o.NumGC, o.PauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	o.RetainedMB = liveHeapMB() - heap0
	if o.Result, err = json.Marshal(res); err != nil {
		return err
	}
	o.Shard = res.Shard
	if job.Setup {
		runtime.GC()
		ts := time.Now()
		if _, err := loadgen.Run(zonedSetupConfig(cfg)); err != nil {
			return err
		}
		o.SetupNs = int64(time.Since(ts))
	}
	return json.NewEncoder(out).Encode(o)
}

// childMain is main for a child process.
func childMain(spec string) int {
	if err := runChild(spec, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 2
	}
	return 0
}

// zonedRun is one timed loadgen.Run, as a child reported it.
type zonedRun struct {
	childOut
	res        *loadgen.Result
	start, end time.Time
	wall       time.Duration
}

// spawn runs job in a child process — this same program, started again
// by the path it was started by (os.Executable would read /proc) — and
// waits for it to exit.
func spawn(job childJob) (zonedRun, error) {
	spec, err := json.Marshal(job)
	if err != nil {
		return zonedRun{}, err
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return zonedRun{}, fmt.Errorf("child process: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var run zonedRun
	if err := json.Unmarshal(stdout.Bytes(), &run.childOut); err != nil {
		return zonedRun{}, fmt.Errorf("child output: %v", err)
	}
	run.res = &loadgen.Result{}
	if err := json.Unmarshal(run.Result, run.res); err != nil {
		return zonedRun{}, fmt.Errorf("child result: %v", err)
	}
	run.res.Shard = run.Shard
	run.start, run.end = time.Unix(0, run.StartNs), time.Unix(0, run.EndNs)
	run.wall = run.end.Sub(run.start)
	return run, nil
}

// checkZoned checks one run against the set's first: per op kind,
// completed + errors + timeouts = issued; the schedule hash and the whole
// result are identical; the sharded clock saw no causality violation.
func checkZoned(r *report, run, first zonedRun) {
	for name, o := range run.res.Ops {
		if o.Count+o.Errors+o.Timeouts != o.Issued {
			r.checkFailed("zoned %s: completed %d + errors %d + timeouts %d != issued %d", name, o.Count, o.Errors, o.Timeouts, o.Issued)
		}
	}
	if run.res.ScheduleHash != first.res.ScheduleHash {
		r.checkFailed("zoned schedule hash %s differs from the set's %s", run.res.ScheduleHash, first.res.ScheduleHash)
	} else if !bytes.Equal(run.Result, first.Result) {
		r.checkFailed("zoned result differs from the set's first run with the same schedule hash")
	}
	if s := run.res.Shard; s == nil {
		r.checkFailed("zoned run did not use the sharded clock")
	} else if s.CausalityViolations != 0 {
		r.checkFailed("zoned run: %d shard causality violations", s.CausalityViolations)
	}
}

// heapPeak samples the live heap (as marked by the last GC) until stopped
// and returns the peak: the heap at the end of a run says nothing, since
// Run drops its deployment.
type heapPeak struct {
	stop chan struct{}
	done chan float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := uint64(0)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stop:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it to exit and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	return <-h.done
}

// minZonedRuns is the fewest timed runs each job of a set has, so it can
// be compared and has a middle.
const minZonedRuns = 3

// zonedSeeds are the preset seeds a run cycles through, drawn from
// --seed. The simulated work per op differs between seeds by ±7%
// (allocations per op ranged 247–282 over ten seeds), so a run spreads
// over several to keep that out of its figures; distinct --seed values
// give disjoint sets.
func zonedSeeds(c *config) []int64 {
	n := int64(8)
	if c.tiny {
		n = 2
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = c.seed*n + int64(i)
	}
	return seeds
}

// zonedSet runs jobs in child processes, cycling through them until the
// window has passed and every job has run at least minZonedRuns times. It
// checks every run against the first run of the same preset seed, samples
// the calibration kernel after each, and returns the runs per job.
func zonedSet(c *config, r *report, cal *calibrator, jobs []childJob) ([][]zonedRun, error) {
	runs := make([][]zonedRun, len(jobs))
	first := map[int64]zonedRun{}
	deadline := time.Now().Add(c.window())
	for len(runs[len(jobs)-1]) < minZonedRuns || time.Now().Before(deadline) {
		for i, job := range jobs {
			run, err := spawn(job)
			if err != nil {
				return nil, err
			}
			f, ok := first[job.Seed]
			if !ok {
				f = run
				first[job.Seed] = run
			}
			checkZoned(r, run, f)
			r.attempted += int64(run.res.Issued)
			runs[i] = append(runs[i], run)
			cal.sample()
		}
	}
	return runs, nil
}

func runZoned(c *config, r *report) error {
	var jobs []childJob
	for _, seed := range zonedSeeds(c) {
		jobs = append(jobs, childJob{Seed: seed, Tiny: c.tiny, Setup: true})
	}
	cal := newCalibrator()
	set, err := zonedSet(c, r, cal, jobs)
	if err != nil {
		return err
	}
	var ops, mallocs, issued, completed, errs, timeouts uint64
	var wall time.Duration
	var p50s, setups, peaks, walls, virt []float64
	for _, runs := range set {
		perOp := make([]float64, 0, len(runs))
		for _, run := range runs {
			ops += run.res.Issued
			mallocs += run.Mallocs
			wall += run.wall
			perOp = append(perOp, run.wall.Seconds()*1e6/float64(run.res.Issued))
			setups = append(setups, time.Duration(run.SetupNs).Seconds())
			peaks = append(peaks, run.PeakMB)
			walls = append(walls, run.wall.Seconds())
		}
		p50s = append(p50s, median(perOp))
		res := runs[0].res
		issued += res.Issued
		completed += res.Completed
		errs += res.Errors
		timeouts += res.Timeouts
		read := res.Ops["read"]
		if read == nil {
			return fmt.Errorf("zoned result has no read op")
		}
		virt = append(virt, float64(read.P50Ns)/1e6)
	}
	// A child's set-up, like its run, is a whole process's work on two
	// threads, which stalls slow as they slow a rate.
	r.setSetup(median(setups), cal.rateFactor())
	r.set("ops_per_s", float64(ops)/wall.Seconds())
	// Each preset seed's median run gives its per-op cost; the percentiles
	// are taken over the seeds, so op_p90_us is the tail over inputs, not
	// over the host's stalls.
	r.set("op_p50_us", quantile(p50s, 0.5))
	r.set("op_p90_us", quantile(p50s, 0.9))
	r.set("ok_ratio", float64(completed)/float64(issued))
	r.set("allocs_per_op", float64(mallocs)/float64(ops))
	r.set("heap_mb", median(peaks))
	r.set("virt_p50_ms", median(virt))
	r.logf("%d runs over %d preset seeds, %d each, one child process per run; wall per run (s): median %.4f, p10 %.4f, p90 %.4f",
		len(walls), len(set), len(set[0]), median(walls), quantile(walls, 0.1), quantile(walls, 0.9))
	r.logf("simulated outcome over one run of each seed: %d issued, %d completed, %d errors, %d timeouts (2%% loss)",
		issued, completed, errs, timeouts)
	cal.release()
	r.scaleWallTimes(cal, cal.rateFactor(), cal.rateFactor())
	return nil
}

func runWalls(runs []zonedRun) []float64 {
	out := make([]float64, len(runs))
	for i, run := range runs {
		out[i] = run.wall.Seconds()
	}
	return out
}

func traceZoned(c *config, r *report) error {
	tr := newTracer()
	k := tr.kind("loadgen.run")

	// Cycle default, traced default and one-worker runs of every preset
	// seed until the window has passed; the sharded clock is bit-identical
	// at any worker count, so every run must match the first of its seed. A
	// traced run is recorded as a span from the child's own clock readings
	// around loadgen.Run.
	var jobs []childJob
	for _, seed := range zonedSeeds(c) {
		plain := childJob{Seed: seed, Tiny: c.tiny}
		one := plain
		one.Workers = 1
		jobs = append(jobs, plain, plain, one)
	}
	set, err := zonedSet(c, r, nil, jobs)
	if err != nil {
		return err
	}
	var ops uint64
	var sum runtime.MemStats
	var retained []float64
	var modes [3][]float64 // wall per op: default, traced, one worker
	for i, runs := range set {
		for _, run := range runs {
			if i%3 == 1 {
				tr.record(k, uint32(len(modes[1])), run.start, run.end)
			}
			ops += run.res.Issued
			sum.NumGC += run.NumGC
			sum.PauseTotalNs += run.PauseNs
			sum.TotalAlloc += run.TotalAlloc
			retained = append(retained, run.RetainedMB)
			modes[i%3] = append(modes[i%3], run.wall.Seconds()/float64(run.res.Issued))
		}
	}
	runtimeDelta(r, &runtime.MemStats{}, &sum, int(ops))
	r.set("loadgen.retained_mb_per_run", median(retained))
	base, traced, one := median(modes[0]), median(modes[1]), median(modes[2])
	r.set("trace.overhead_pct", 100*(traced/base-1))
	r.set("netsim.shard_speedup", one/base)
	r.logf("median wall per op (us): default %.2f, traced %.2f, one shard worker %.2f (%d runs each)",
		1e6*base, 1e6*traced, 1e6*one, len(modes[0]))

	res := set[0][0].res
	s := res.Shard
	issued := float64(res.Issued)
	r.set("netsim.shard_events_per_round", ratio(float64(s.Events), float64(s.Rounds)))
	r.set("netsim.shard_lane_occupancy", ratio(float64(s.LaneRounds), float64(s.Rounds)*float64(s.Lanes)))
	r.set("netsim.shard_cross_merged_per_op", float64(s.CrossMerged)/issued)
	r.set("netsim.shard_causality_violations", float64(s.CausalityViolations))
	r.set("netsim.steps_per_op", float64(s.Events)/issued)
	r.set("netsim.virt_s_per_wall_s", time.Duration(res.WarmupNs+res.MeasureNs+res.CooldownNs).Seconds()/median(runWalls(set[0])))
	r.set("client.timeouts_per_kop", 1000*float64(res.Timeouts)/issued)
	r.set("loadgen.issued", issued)
	r.set("loadgen.stream_readings", float64(res.StreamReadings))
	r.set("loadgen.max_in_flight", float64(res.MaxInFlight))

	e := envFromSeed(c.seed)
	probeThings := 40
	if c.tiny {
		probeThings = 8
	}
	cp, err := buildCore(probeThings, e)
	if err != nil {
		return err
	}
	if err := probeMicro(c, r, tr, cp); err != nil {
		return err
	}
	r.skip("loadgen drives the SDK internally", "micropnp.await_self_us", "micropnp.allocs_self",
		"client.issue_us", "client.pending_peak", "netsim.step_us")
	r.skip("loadgen.Result exposes no network counters", "netsim.transmissions_per_op",
		"netsim.delivered_per_op", "netsim.lost_per_op")
	hostFactor(r, 5)
	r.skip("no gateway on this path", gatewayMetrics...)
	return finishTrace(c, r, tr)
}
