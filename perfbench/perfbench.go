// Command perfbench is the repository's benchmark. It runs one of three
// workloads — sdk-read, gateway-rw, sim-zoned — for a fixed wall-clock
// window, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around each layer call and reports the per-layer
// metrics instead. Run it from the repository root:
//
//	bash perfbench/run.sh --workload sdk-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// tiny shrinks populations and op counts so the test suite can run
	// every workload in seconds; the measurements are then meaningless.
	tiny bool
}

// window is the timed phase's wall-clock length.
func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metricDef names one reported metric. The names and units are the
// contract with BENCHMARK.json, which the tests cross-check.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"ok_ratio", "ratio"},
	{"allocs_per_op", "allocs"},
	{"heap_mb", "MB"},
	{"virt_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"micropnp.await_self_us", "us"},
	{"micropnp.allocs_self", "allocs"},
	{"client.issue_us", "us"},
	{"client.pending_peak", "count"},
	{"client.timeouts_per_kop", "1/kop"},
	{"netsim.step_us", "us"},
	{"netsim.steps_per_op", "count"},
	{"netsim.transmissions_per_op", "count"},
	{"netsim.delivered_per_op", "count"},
	{"netsim.lost_per_op", "count"},
	{"netsim.virt_s_per_wall_s", "ratio"},
	{"netsim.shard_events_per_round", "count"},
	{"netsim.shard_lane_occupancy", "ratio"},
	{"netsim.shard_cross_merged_per_op", "count"},
	{"netsim.shard_causality_violations", "count"},
	{"netsim.shard_speedup", "ratio"},
	{"vm.driver_us.tmp36", "us"},
	{"vm.driver_us.hih4030", "us"},
	{"vm.driver_us.bmp180", "us"},
	{"vm.driver_us.adxl345", "us"},
	{"proto.encode_us", "us"},
	{"proto.decode_us", "us"},
	{"manager.uploads_per_op", "count"},
	{"hw.identify_us", "us"},
	{"thing.plug_ready_ms", "ms"},
	{"gateway.handler_us.read", "us"},
	{"gateway.handler_us.write", "us"},
	{"gateway.handler_us.list", "us"},
	{"gateway.transport_us", "us"},
	{"catalog.list_us", "us"},
	{"loadgen.issued", "count"},
	{"loadgen.stream_readings", "count"},
	{"loadgen.max_in_flight", "count"},
	{"loadgen.retained_mb_per_run", "MB"},
	{"runtime.gc_cycles_per_kop", "1/kop"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.bytes_per_op", "B"},
	{"trace.overhead_pct", "%"},
	{"host.calib_factor", "ratio"},
}

// report accumulates one run's outcome.
type report struct {
	out       io.Writer
	metrics   map[string]float64
	notes     map[string]string
	attempted int64
	failed    int64
	timeouts  int64 // failed ops that were SDK timeouts or HTTP 504s
	// checkFails counts failed output checks; any fails the run.
	checkFails int64
	firstFails []string
}

func newReport(out io.Writer) *report {
	return &report{out: out, metrics: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// skip records why a metric is not measured on this workload; it is then
// reported as 0.
func (r *report) skip(reason string, names ...string) {
	for _, n := range names {
		r.notes[n] = reason
	}
}

// opFailed counts an operation that failed (SDK error, timeout, non-2xx).
func (r *report) opFailed(format string, args ...any) {
	r.failed++
	r.remember(format, args...)
}

// checkFailed counts an operation whose output failed a check: the run is
// then incorrect, and the operation also counts as failed.
func (r *report) checkFailed(format string, args ...any) {
	r.checkFails++
	r.failed++
	r.remember("check: "+format, args...)
}

func (r *report) remember(format string, args ...any) {
	if len(r.firstFails) < 8 {
		r.firstFails = append(r.firstFails, fmt.Sprintf(format, args...))
	}
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// finish prints every metric of the selected set with its unit, then the
// result line. It reports whether the run was correct.
func (r *report) finish(defs []metricDef) bool {
	res := resultJSON{
		Correct:   r.checkFails == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, f := range r.firstFails {
		fmt.Fprintf(r.out, "# failure: %s\n", f)
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		note := ""
		if n, ok := r.notes[d.name]; ok {
			note = "  (not measured: " + n + ")"
		}
		fmt.Fprintf(r.out, "%-36s %16.6g %s%s\n", d.name, v, d.unit, note)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(r.out, "# attempted %d, failed %d, failed output checks %d\n", r.attempted, r.failed, r.checkFails)
	line, _ := json.Marshal(res) // a map of plain numbers always marshals
	fmt.Fprintln(r.out, string(line))
	return res.Correct
}

// workload is one benchmark workload: its generator's concurrency, for
// the nproc guard, and its two run modes.
type workload struct {
	goroutines, connections int
	run                     func(c *config, r *report) error
	traced                  func(c *config, r *report) error
}

var workloads = map[string]workload{
	"sdk-read":   {goroutines: 1, run: runSDKRead, traced: traceSDKRead},
	"gateway-rw": {goroutines: 1, connections: 1, run: runGateway, traced: traceGateway},
	"sim-zoned":  {goroutines: 1, run: runZoned, traced: traceZoned},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark run and returns the process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.Float64Var(&c.seconds, "seconds", 10, "length of the timed phase in wall seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&c.traceOut, "trace-out", ".bench_build/trace", "directory the traced run writes its spans to (empty = keep in memory only)")
	fs.BoolVar(&c.tiny, "tiny", false, "tiny sizes for tests; measurements are meaningless")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[c.workload]
	if !ok {
		fmt.Fprintf(errOut, "perfbench: unknown workload %q (want one of %s)\n", c.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(errOut, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	c.trace = trace == 1
	if c.seconds <= 0 {
		fmt.Fprintf(errOut, "perfbench: --seconds must be positive\n")
		return 2
	}
	nproc := runtime.NumCPU()
	fmt.Fprintf(out, "# meta workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q generator_goroutines=%d generator_connections=%d\n",
		c.workload, c.seed, c.seconds, trace, nproc, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), w.goroutines, w.connections)
	if w.goroutines > nproc || w.connections > nproc {
		fmt.Fprintf(errOut, "perfbench: %s needs %d generator goroutines and %d connections, more than nproc=%d\n",
			c.workload, w.goroutines, w.connections, nproc)
		return 2
	}
	r := newReport(out)
	fn, defs := w.run, endToEnd
	if c.trace {
		fn, defs = w.traced, perLayer
	}
	if err := fn(&c, r); err != nil {
		fmt.Fprintf(errOut, "perfbench: %s: %v\n", c.workload, err)
		return 2
	}
	if !r.finish(defs) {
		return 1
	}
	return 0
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
