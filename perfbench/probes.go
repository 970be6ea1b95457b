package main

import (
	"fmt"
	"runtime"
	"time"

	"micropnp"
	"micropnp/internal/client"
	"micropnp/internal/hw"
	"micropnp/internal/proto"
	"micropnp/internal/thing"
)

// Layer probes for the traced runs. Each wraps calls into one layer's
// public functions from the benchmark's side and records a span per call;
// nothing inside the program is instrumented.

// coreReader drives the same reads as sdkReader straight through
// internal/core and internal/client, stepping the network itself: the
// public SDK's await/pump is the only thing missing.
type coreReader struct {
	cp  *corePop
	e   env
	ord []int32
	pos int
	buf []int32
	r   *report

	done bool
	vals []int32
	err  error
	at   time.Duration
	cb   func([]int32, error)

	tr                   *tracer
	kRead, kIssue, kStep uint16
	op                   uint32
	steps, peak          int
}

func newCoreReader(cp *corePop, e env, seed int64, r *report, tr *tracer) *coreReader {
	c := &coreReader{cp: cp, e: e, ord: order(seed, len(cp.targets), 1<<16), r: r, tr: tr,
		kRead: tr.kind("core.read"), kIssue: tr.kind("client.issue"), kStep: tr.kind("netsim.step")}
	c.cb = func(vals []int32, err error) {
		c.vals, c.err, c.done, c.at = vals, err, true, cp.d.Network.Now()
	}
	return c
}

func (c *coreReader) read() time.Duration {
	t := c.cp.targets[c.ord[c.pos]]
	c.pos = (c.pos + 1) & (len(c.ord) - 1)
	id := sensorKinds[t.kind].id
	c.r.attempted++
	c.op++
	c.done = false
	root := c.tr.begin(c.kRead, c.op, -1)
	sp := c.tr.begin(c.kIssue, c.op, root)
	before := c.cp.d.Network.Now()
	c.cp.cl.ReadInto(t.addr, hw.DeviceID(id), c.buf, client.DefaultTimeout, c.cb)
	c.tr.end(sp)
	if p := c.cp.cl.Pending(); p > c.peak {
		c.peak = p
	}
	for !c.done {
		s := c.tr.begin(c.kStep, c.op, root)
		stepped := c.cp.d.Network.Step()
		c.tr.end(s)
		c.steps++
		if !stepped {
			break
		}
	}
	c.tr.end(root)
	switch {
	case !c.done:
		c.r.opFailed("core read %s: network went idle without a reply", t.addr)
	case c.err != nil:
		c.r.opFailed("core read %s: %v", t.addr, c.err)
	default:
		c.buf = c.vals
		if err := c.e.checkValues(t.kind, c.vals); err != nil {
			c.r.checkFailed("core %s: %v", t.addr, err)
		}
	}
	return c.at - before
}

// timeOps runs n ops and returns their wall time.
func timeOps(n int, op func() time.Duration) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return time.Since(t0)
}

// compareSDK measures what the public SDK adds over the layers below it:
// the same seeded reads issued through Client.ReadInto and through
// internal/client with the benchmark stepping the network, in alternating
// blocks, then one traced block of the core path for the client and
// netsim spans.
func compareSDK(sz sizes, e env, seed int64, r *report, tr *tracer, pub *sdkPop, cp *corePop) {
	sr := newSDKReader(pub, e, seed, r, nil)
	cr := newCoreReader(cp, e, seed, r, tr)
	cr.tr = nil
	const blocks = 4
	var pubT, coreT time.Duration
	for b := 0; b < blocks; b++ {
		pubT += timeOps(sz.probeOps/blocks, sr.read)
		coreT += timeOps(sz.probeOps/blocks, cr.read)
	}
	pubAllocs, _ := exactPhase(sz.probeOps/blocks, sr.read)
	coreAllocs, _ := exactPhase(sz.probeOps/blocks, cr.read)
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(sz.probeOps) }
	r.set("micropnp.await_self_us", perOp(pubT)-perOp(coreT))
	r.set("micropnp.allocs_self", pubAllocs-coreAllocs)
	r.logf("public ReadInto %.3f us/op, %.2f allocs/op; internal/client + Network.Step %.3f us/op, %.2f allocs/op",
		perOp(pubT), pubAllocs, perOp(coreT), coreAllocs)

	cr.tr, cr.steps, cr.peak = tr, 0, 0
	n := sz.probeOps / blocks
	timeOps(n, cr.read)
	agg := tr.selfTimes()
	if l := agg["client.issue"]; l != nil {
		r.set("client.issue_us", l.meanSelfUS())
	}
	if l := agg["netsim.step"]; l != nil {
		r.set("netsim.step_us", l.meanSelfUS())
	}
	r.set("netsim.steps_per_op", float64(cr.steps)/float64(n))
	r.set("client.pending_peak", float64(cr.peak))
}

// spanMedianUS times n calls of fn, one span each, and returns the median
// span in µs.
func spanMedianUS(tr *tracer, name string, n int, fn func(i int)) float64 {
	k := tr.kind(name)
	xs := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sp := tr.begin(k, uint32(i), -1)
		fn(i)
		tr.end(sp)
		xs[i] = time.Since(t0).Seconds() * 1e6
	}
	return median(xs)
}

// probeMicro times single layers on a core population: each installed
// driver's runtime, the proto codec on read frames, a board's hardware
// identification, and reports the virtual plug-in time and manager
// uploads of its set-up.
func probeMicro(c *config, r *report, tr *tracer, cp *corePop) error {
	reps := 2000
	if c.tiny {
		reps = 20
	}
	for k, sk := range sensorKinds {
		var th *thing.Thing
		for i, t := range cp.targets {
			if t.kind == k {
				th = cp.things[i]
				break
			}
		}
		if th == nil {
			return fmt.Errorf("no Thing carries %s", sk.name)
		}
		rt := th.Runtime(hw.DeviceID(sk.id))
		if rt == nil {
			return fmt.Errorf("%s has no %s runtime", th.Addr(), sk.name)
		}
		// A read with no request pending runs the whole driver — handlers,
		// native bus calls, conversion timers on the network clock — and
		// its return value is dropped.
		r.set("vm.driver_us."+sk.name, spanMedianUS(tr, "vm.driver."+sk.name, reps, func(int) {
			rt.Post("read")
			rt.RunUntilIdle(0)
			cp.d.Network.RunUntilIdle(0)
		}))
	}

	// The codec costs tens of ns a call, below what one clock read
	// resolves, so each span covers a batch.
	const batch = 256
	req := &proto.Message{Type: proto.MsgRead, Seq: 7, DeviceID: hw.DeviceID(micropnp.BMP180)}
	reply := &proto.Message{Type: proto.MsgData, Seq: 7, DeviceID: hw.DeviceID(micropnp.BMP180),
		Data: proto.AppendValues32(nil, []int32{251, 101325})}
	var frames [2][]byte
	for i, m := range []*proto.Message{req, reply} {
		f, err := m.Encode()
		if err != nil {
			return err
		}
		frames[i] = f
	}
	buf := make([]byte, 0, 64)
	r.set("proto.encode_us", spanMedianUS(tr, "proto.encode", reps/10, func(int) {
		for j := 0; j < batch; j++ {
			buf, _ = req.AppendEncode(buf[:0])
			buf, _ = reply.AppendEncode(buf[:0])
		}
	})/(2*batch))
	dec := proto.AcquireDecoder()
	defer proto.ReleaseDecoder(dec)
	var derr error
	r.set("proto.decode_us", spanMedianUS(tr, "proto.decode", reps/10, func(int) {
		for j := 0; j < batch; j++ {
			if _, err := dec.Decode(frames[0]); err != nil {
				derr = err
			}
			if _, err := dec.Decode(frames[1]); err != nil {
				derr = err
			}
		}
	})/(2*batch))
	if derr != nil {
		return fmt.Errorf("decoding read frames: %w", derr)
	}

	board := cp.things[0].Board()
	r.set("hw.identify_us", spanMedianUS(tr, "hw.identify", reps/10, func(int) { board.Identify() }))

	ready := make([]float64, 0, len(cp.things))
	plugs := 0
	for _, th := range cp.things {
		for _, t := range th.Traces() {
			plugs++
			if t.Done {
				ready = append(ready, float64(t.Total)/1e6)
			}
		}
	}
	r.set("thing.plug_ready_ms", median(ready))
	r.set("manager.uploads_per_op", ratio(float64(cp.d.Uploads()), float64(plugs)))
	return nil
}

// netDelta reports network work per op between two counter snapshots.
func netDelta(r *report, a, b micropnp.NetworkStats, ops int) {
	n := float64(ops)
	r.set("netsim.transmissions_per_op", float64(b.Transmissions-a.Transmissions)/n)
	r.set("netsim.delivered_per_op", float64(b.Delivered-a.Delivered)/n)
	r.set("netsim.lost_per_op", float64(b.Lost-a.Lost)/n)
}

// runtimeDelta reports the Go runtime's collector work per op.
func runtimeDelta(r *report, a, b *runtime.MemStats, ops int) {
	cycles := float64(b.NumGC - a.NumGC)
	r.set("runtime.gc_cycles_per_kop", 1000*cycles/float64(ops))
	r.set("runtime.gc_pause_ms", ratio(float64(b.PauseTotalNs-a.PauseTotalNs)/1e6, cycles))
	r.set("runtime.bytes_per_op", float64(b.TotalAlloc-a.TotalAlloc)/float64(ops))
}

// alternate splits window into blocks run alternately untraced and
// traced, so slow host phases fall on both sides, and reports the tracing
// overhead from the two sides' op rates.
func alternate(r *report, window time.Duration, blocks int, untraced, traced func(deadline time.Time) int) (ops int) {
	var uOps, tOps int
	var uT, tT time.Duration
	step := window / time.Duration(2*blocks)
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		uOps += untraced(t0.Add(step))
		t1 := time.Now()
		tOps += traced(t1.Add(step))
		t2 := time.Now()
		uT += t1.Sub(t0)
		tT += t2.Sub(t1)
	}
	uRate, tRate := float64(uOps)/uT.Seconds(), float64(tOps)/tT.Seconds()
	r.set("trace.overhead_pct", 100*(uRate/tRate-1))
	r.logf("tracing overhead: %.0f ops/s untraced, %.0f ops/s traced", uRate, tRate)
	return uOps + tOps
}
