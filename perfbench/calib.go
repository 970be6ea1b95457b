package main

import "time"

// The host this benchmark runs on switches allocation-heavy Go code
// between speeds 2× to 4× apart, in phases that last minutes and cover
// whole runs (EVIDENCE.md); a plain ALU loop moves far less. Wall times
// taken raw therefore measure the host's phase more than the code. So
// every workload also times a fixed calibration kernel — small
// allocations, map lookups and collection, what the workloads spend their
// time in — between short pieces of the run, and reports each wall-time
// metric divided by how much slower than a reference the kernel ran. The
// kernel is benchmark code and never changes between the commits being
// compared, so a change to the program moves the scaled figures as it
// moves the raw ones, while a change of host phase moves the kernel too
// and cancels. Every run prints the raw figures and the factors beside
// the scaled ones.
//
// The host slows code in two ways: a whole phase runs slower, and, within
// one, short stalls hit a few operations. Stalls move an op rate, which
// averages over them, but hardly a median latency. So each kernel sample
// is timed in ten pieces: the rate factor, from the whole samples, scales
// rates and whole-process durations (every sim-zoned figure); the level
// factor, from the median piece, scales per-op latency percentiles and
// set-up medians on sdk-read and gateway-rw. Their op rates take the
// segment factor, which weighs each segment of the timed window by the
// sample taken right after it.

// calibRefNs is the kernel's ns per iteration the scaling is relative to,
// about its cost on a 2-vCPU Xeon VM in that host's fast phase, so scaled
// figures there read close to raw ones.
const calibRefNs = 150.0

const (
	calibIters = 50_000
	calibKeys  = 1 << 16
)

type calibObj struct {
	next *calibObj
	key  uint32
	pad  [10]uint32
}

// calibPieces is how many pieces a sample is timed in.
const calibPieces = 10

// calibrator holds the kernel's live set and its samples.
type calibrator struct {
	index   map[uint32]*calibObj
	samples []float64 // ns per iteration of each sample
	pieces  []float64 // ns per iteration of each piece of a sample
	// segWork is the timed window's wall time; segRef the same with each
	// segment rescaled to the reference speed by the sample after it.
	segWork, segRef time.Duration
	x               uint32
	sink            uint32
}

func newCalibrator() *calibrator {
	c := &calibrator{index: make(map[uint32]*calibObj, calibKeys), x: 2463534242}
	for k := uint32(0); k < calibKeys; k++ {
		c.index[k] = &calibObj{key: k}
	}
	return c
}

// sample times one kernel run: random replacements in a persistent map,
// each allocating a small object, with the collector running as usual —
// the allocation, map and collection work the workloads spend their time
// in.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	const n = calibIters / calibPieces
	var total time.Duration
	for p := 0; p < calibPieces; p++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c.x ^= c.x << 13
			c.x ^= c.x >> 17
			c.x ^= c.x << 5
			k := c.x & (calibKeys - 1)
			o := &calibObj{key: k, next: c.index[k]}
			if o.next != nil {
				c.sink += o.next.key
				o.next.next = nil
			}
			c.index[k] = o
		}
		d := time.Since(t0)
		total += d
		c.pieces = append(c.pieces, float64(d)/n)
	}
	c.samples = append(c.samples, float64(total)/calibIters)
}

// release drops the kernel's live set, so it does not count in heap_mb.
func (c *calibrator) release() { c.index = nil }

// rateFactor is how much slower than the reference the host ran the
// kernel, stalls included: the median sample over the reference.
func (c *calibrator) rateFactor() float64 {
	return median(append([]float64(nil), c.samples...)) / calibRefNs
}

// levelFactor is the same for the host's speed between stalls: the median
// piece over the reference.
func (c *calibrator) levelFactor() float64 {
	return median(append([]float64(nil), c.pieces...)) / calibRefNs
}

// segmentFactor is the rate factor over the timed window, each segment
// weighed by its length and the kernel sample taken right after it: the
// window's wall time over what it would have taken at the reference speed.
func (c *calibrator) segmentFactor() float64 {
	return float64(c.segWork) / float64(c.segRef)
}

// calibSegments is how many segments a timed window is cut into, with a
// kernel sample after each, so the kernel sees the same host as the
// workload: the host's speed wanders within seconds as well.
const calibSegments = 40

// segmented runs the timed window in calibSegments segments, sampling the
// kernel between them, and returns the time spent in run.
func segmented(window time.Duration, cal *calibrator, run func(deadline time.Time)) time.Duration {
	var work time.Duration
	seg := window / calibSegments
	for i := 0; i < calibSegments; i++ {
		t0 := time.Now()
		run(t0.Add(seg))
		d := time.Since(t0)
		work += d
		cal.sample()
		cal.segWork += d
		cal.segRef += time.Duration(float64(d) * calibRefNs / cal.samples[len(cal.samples)-1])
	}
	return work
}

// scaleWallTimes rescales the timed window's wall-time metrics — ops_per_s
// by rate, op_p50_us and op_p90_us by latency, the factors that fit how
// they were taken — and logs the raw values beside them.
func (r *report) scaleWallTimes(cal *calibrator, rate, latency float64) {
	m := r.metrics
	r.logf("host rate factor %.4f, level factor %.4f, applied %.4f to the op rate and %.4f to latencies: kernel samples %.1f ns/iter (reference %.0f)",
		cal.rateFactor(), cal.levelFactor(), rate, latency, cal.samples, calibRefNs)
	r.logf("raw wall figures: ops_per_s %.6g, op_p50_us %.6g, op_p90_us %.6g",
		m["ops_per_s"], m["op_p50_us"], m["op_p90_us"])
	m["ops_per_s"] *= rate
	m["op_p50_us"] /= latency
	m["op_p90_us"] /= latency
}

// setSetup reports setup_s: the raw median set-up time divided by f, the
// host factor that fits how the set-ups were taken.
func (r *report) setSetup(raw, f float64) {
	r.logf("setup factor %.4f; raw setup_s %.6g", f, raw)
	r.set("setup_s", raw/f)
}

// hostFactor samples the kernel n times and reports the rate factor as
// host.calib_factor, for the traced runs, whose per-layer figures are raw.
func hostFactor(r *report, n int) {
	c := newCalibrator()
	for i := 0; i < n; i++ {
		c.sample()
	}
	r.set("host.calib_factor", c.rateFactor())
}
