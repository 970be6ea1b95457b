// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus the §6.2 microbenchmarks and the ablations
// called out in DESIGN.md. Simulated quantities (virtual milliseconds,
// joules, bytes) are attached to each benchmark via ReportMetric; wall-clock
// ns/op measures the simulator itself.
package micropnp_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micropnp"

	"micropnp/internal/bytecode"
	"micropnp/internal/driver"
	"micropnp/internal/dsl"
	"micropnp/internal/energy"
	"micropnp/internal/experiments"
	"micropnp/internal/hw"
	"micropnp/internal/vm"
)

// BenchmarkIdentification regenerates the hardware numbers behind
// Figures 2/3/5 and Section 6.1: a full identification scan of one
// peripheral on the default 3-channel board.
func BenchmarkIdentification(b *testing.B) {
	p, err := hw.NewPeripheral(hw.PeripheralSpec{ID: 0xad1cbe01, Bus: hw.BusADC})
	if err != nil {
		b.Fatal(err)
	}
	board := hw.NewControlBoard(hw.BoardConfig{})
	if err := board.Plug(0, p); err != nil {
		b.Fatal(err)
	}
	var res hw.IdentifyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = board.Identify()
	}
	b.ReportMetric(float64(res.Duration.Milliseconds()), "sim-ms/scan")
	b.ReportMetric(float64(res.Energy)*1e3, "sim-mJ/scan")
}

// BenchmarkFig12EnergySweep regenerates Figure 12: the full change-rate ×
// interconnect grid of the one-year energy simulation.
func BenchmarkFig12EnergySweep(b *testing.B) {
	var rows []energy.SweepPoint
	for i := 0; i < b.N; i++ {
		rows = energy.Sweep(energy.Figure12Rates(), energy.Figure12Profiles)
	}
	hourly := energy.Simulate(energy.DeploymentConfig{ChangePeriod: time.Hour, Profile: energy.ProfileADC})
	b.ReportMetric(float64(len(rows)), "points")
	b.ReportMetric(float64(hourly.USB)/float64(hourly.UPnPMean), "usb/upnp@hourly")
}

// BenchmarkTable2Footprint regenerates Table 2's measurable artefacts.
func BenchmarkTable2Footprint(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	b.ReportMetric(float64(rows[len(rows)-1].Measured), "driver-bytes-total")
}

// BenchmarkTable3Compile regenerates Table 3: compiling all four standard
// drivers from DSL source to bytecode.
func BenchmarkTable3Compile(b *testing.B) {
	srcs := make(map[hw.DeviceID]string)
	var total int
	for _, sd := range driver.StandardDrivers {
		src, err := driver.Source(sd)
		if err != nil {
			b.Fatal(err)
		}
		srcs[sd.ID] = src
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, sd := range driver.StandardDrivers {
			prog, err := dsl.Compile(srcs[sd.ID], uint32(sd.ID))
			if err != nil {
				b.Fatal(err)
			}
			total += prog.Size()
		}
	}
	b.ReportMetric(float64(total), "dsl-bytes-total")
}

// vmBenchRuntime builds a machine around a tight arithmetic handler.
func vmBenchMachine(b *testing.B) *vm.Machine {
	src := `int32_t acc;

event init():
    acc = 0;

event destroy():
    pass;

event work(int32_t x):
    acc = ((x * 3 + 7) / 2 - 5) % 1000;
    acc = acc + (x << 2) - (x >> 1);
`
	prog, err := dsl.Compile(src, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.NewMachine(prog)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkVMInstruction reproduces the §6.2 instruction-cost measurement:
// the paper reports 39.7 µs per bytecode instruction on the 16 MHz AVR; the
// emulated cost model is reported alongside our wall-clock speed.
func BenchmarkVMInstruction(b *testing.B) {
	m := vmBenchMachine(b)
	var res vm.RunResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = m.Run("work", []int32{int32(i)})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perInstr := float64(res.EmulatedTime.Microseconds()) / float64(res.Instructions)
	b.ReportMetric(float64(res.Instructions), "instr/handler")
	b.ReportMetric(perInstr, "sim-us/instr")
}

// BenchmarkStackPushPop isolates the push/pop costs (§6.2: 11.1 µs / 8.9 µs).
func BenchmarkStackPushPop(b *testing.B) {
	src := `int32_t sink;

event init():
    pass;

event destroy():
    pass;

event pushpop():
    sink = 1;
    sink = 2;
    sink = 3;
`
	prog, err := dsl.Compile(src, 2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.NewMachine(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run("pushpop", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	tm := vm.DefaultAVRTimeModel
	b.ReportMetric(float64(tm.PushCost.Nanoseconds())/1e3, "sim-us/push")
	b.ReportMetric(float64(tm.PopCost.Nanoseconds())/1e3, "sim-us/pop")
}

// BenchmarkEventRouter measures event dispatch through the two-queue router
// (§6.2: 77.79 µs per event, linear scaling).
func BenchmarkEventRouter(b *testing.B) {
	r := vm.NewRouter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Post(vm.Event{Name: "e", IsError: i%8 == 0})
		if _, ok := r.Next(); !ok {
			b.Fatal("router lost an event")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(vm.DefaultAVRTimeModel.Dispatch.Nanoseconds())/1e3, "sim-us/event")
}

// BenchmarkTable4Plugin regenerates Table 4: the full plug-in sequence
// (identification excluded; the network phases) on a one-hop deployment.
func BenchmarkTable4Plugin(b *testing.B) {
	var total, endToEnd time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := micropnp.NewDeployment()
		if err != nil {
			b.Fatal(err)
		}
		th, err := d.AddThing("bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := th.PlugTMP36(0); err != nil {
			b.Fatal(err)
		}
		d.Run()
		tr := th.Traces()[0]
		if !tr.Done {
			b.Fatal("plug-in did not finish")
		}
		total = tr.NetworkTotal
		endToEnd = tr.Total
	}
	b.ReportMetric(float64(total.Microseconds())/1e3, "sim-ms/plugin-net")
	b.ReportMetric(float64(endToEnd.Microseconds())/1e3, "sim-ms/plugin-e2e")
}

// BenchmarkRealtimeThroughput measures the concurrent wall-clock runtime:
// one iteration is 64 goroutines each issuing 8 reads against a 100-Thing
// realtime deployment (accelerated 4000x). ns/op is the wall time of the
// 512-read batch — long enough (milliseconds) to ride over OS timer
// granularity, since unlike the virtual-clock benchmarks this one measures
// real scheduler behaviour; reads/s is reported alongside.
func BenchmarkRealtimeThroughput(b *testing.B) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(4000),
		micropnp.WithRequestTimeout(30*time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	const nThings = 100
	things := make([]*micropnp.Thing, nThings)
	for i := range things {
		th, err := d.AddThing("bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := th.PlugTMP36(0); err != nil {
			b.Fatal(err)
		}
		things[i] = th
	}
	cl, err := d.AddClient()
	if err != nil {
		b.Fatal(err)
	}
	d.Run()
	ctx := context.Background()
	const readers, per = 64, 8
	var failed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < per; k++ {
					if _, err := cl.Read(ctx, things[(g*per+k)%nThings].Addr(), micropnp.TMP36); err != nil {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if failed.Load() != 0 {
		b.Fatalf("%d reads failed", failed.Load())
	}
	b.ReportMetric(float64(readers*per*b.N)/b.Elapsed().Seconds(), "reads/s")
}

// BenchmarkVirtualRead measures the hottest SDK call on a warm virtual
// deployment, one blocking read per iteration. The allocs/op column tracks
// the pooled-completion design: the reply callback writes into the pooled
// completion's result slots, so a Read costs the callback closure and the
// Reading assembly rather than per-call result cells (the ROADMAP per-Read
// allocation residual). The ReadInto variant recycles the value buffer and
// is the floor the load generators sit on.
func BenchmarkVirtualRead(b *testing.B) {
	setup := func(b *testing.B) (*micropnp.Deployment, *micropnp.Client, *micropnp.Thing) {
		d, err := micropnp.NewDeployment()
		if err != nil {
			b.Fatal(err)
		}
		th, err := d.AddThing("bench", micropnp.WithPeripherals(micropnp.TMP36))
		if err != nil {
			b.Fatal(err)
		}
		cl, err := d.AddClient()
		if err != nil {
			b.Fatal(err)
		}
		d.Run()
		// Warm the pooled-completion and scratch paths before the timer: the
		// allocs/op baseline pins the steady state, which must hold from the
		// first timed iteration, not the cold first call.
		for i := 0; i < 32; i++ {
			if _, err := cl.Read(context.Background(), th.Addr(), micropnp.TMP36); err != nil {
				b.Fatal(err)
			}
		}
		return d, cl, th
	}
	b.Run("read", func(b *testing.B) {
		_, cl, th := setup(b)
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("readinto", func(b *testing.B) {
		_, cl, th := setup(b)
		ctx := context.Background()
		var buf []int32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := cl.ReadInto(ctx, th.Addr(), micropnp.TMP36, buf)
			if err != nil {
				b.Fatal(err)
			}
			buf = r.Values
		}
	})
}

// BenchmarkAblationPulseEncoding quantifies the §3 design choice: worst-case
// signal time of the 4×8-bit pulse train versus a single 16-bit pulse.
func BenchmarkAblationPulseEncoding(b *testing.B) {
	var four, single16 time.Duration
	for i := 0; i < b.N; i++ {
		four = hw.DefaultPulseCoder.TrainDuration(0xffffffff)
		sc := hw.SinglePulseCoder{TMin: hw.DefaultPulseCoder.TMin, Ratio: hw.DefaultPulseCoder.Ratio, Bits: 16}
		single16 = sc.WorstCase()
	}
	b.ReportMetric(float64(four.Microseconds())/1e3, "sim-ms/4x8bit")
	b.ReportMetric(single16.Hours(), "sim-h/1x16bit")
}

// BenchmarkAblationMulticastVsUnicast quantifies the §5 design choice:
// per-hop transmissions for discovery over SMRF multicast versus unicast
// flooding in a 31-Thing tree.
func BenchmarkAblationMulticastVsUnicast(b *testing.B) {
	var res *experiments.AblationMulticastResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.AblationMulticast(31)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MulticastTransmissions), "tx-multicast")
	b.ReportMetric(float64(res.UnicastTransmissions), "tx-unicast")
}

// BenchmarkDriverInterpretation measures end-to-end interpreted driver work:
// one BMP180 read through calibration'd compensation (the heaviest shipped
// driver), including VM, router and native library overhead.
func BenchmarkDriverInterpretation(b *testing.B) {
	repo, err := driver.StandardRepository()
	if err != nil {
		b.Fatal(err)
	}
	entry, _ := repo.Lookup(driver.IDBMP180)
	if _, err := bytecode.Decode(entry.Bytecode); err != nil {
		b.Fatal(err)
	}
	d, err := micropnp.NewDeployment()
	if err != nil {
		b.Fatal(err)
	}
	th, err := d.AddThing("bench")
	if err != nil {
		b.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		b.Fatal(err)
	}
	if err := th.PlugBMP180(0); err != nil {
		b.Fatal(err)
	}
	d.Run()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Read(ctx, th.Addr(), micropnp.BMP180); err != nil {
			b.Fatal(err)
		}
	}
}
