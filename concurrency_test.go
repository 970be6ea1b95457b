// Concurrency tests for the SDK: parallel Read/Write/Subscribe/Unsubscribe
// across both clock modes, the subscription Close lifecycle, the retry
// (ARQ) layer, and the realtime throughput acceptance test (hundreds of
// goroutines against a 1,000-Thing deployment). All of these run under the
// CI race leg (go test -race -short ./...).
package micropnp_test

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micropnp"
)

// throughputScale keeps accelerated-runtime tests fast: virtual seconds
// pass in wall milliseconds.
const throughputScale = 4000

// plugFleet builds a deployment with n Things, each serving a TMP36, and
// returns the Things. The plug-in sequences are left to play out by the
// caller (d.Run()).
func plugFleet(t testing.TB, d *micropnp.Deployment, n int) []*micropnp.Thing {
	t.Helper()
	things := make([]*micropnp.Thing, n)
	for i := range things {
		th, err := d.AddThing(fmt.Sprintf("thing-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := th.PlugTMP36(0); err != nil {
			t.Fatal(err)
		}
		things[i] = th
	}
	return things
}

// TestConcurrentReadsVirtual drives many goroutines through the virtual
// clock: the blocked calls elect one driver to step the simulator while the
// rest park on their completion channels.
func TestConcurrentReadsVirtual(t *testing.T) {
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	things := plugFleet(t, d, 4)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	const goroutines, per = 24, 5
	var wg sync.WaitGroup
	var failures atomic.Int32
	ctx := context.Background()
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				th := things[(g+k)%len(things)]
				r, err := cl.Read(ctx, th.Addr(), micropnp.TMP36)
				if err != nil || len(r.Values) == 0 {
					failures.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d/%d concurrent virtual reads failed", n, goroutines*per)
	}
}

// TestConcurrentMixedOpsRealtime exercises parallel Read, Write, Discover,
// Subscribe and Close against a realtime deployment.
func TestConcurrentMixedOpsRealtime(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		micropnp.WithRequestTimeout(30*time.Minute),
		micropnp.WithStreamPeriod(2*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	things := plugFleet(t, d, 6)
	relayThing, err := d.AddThing("relays")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relayThing.PlugRelay(0); err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers.
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				th := things[(g+k)%len(things)]
				if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
					errs <- fmt.Errorf("read: %w", err)
				}
			}
		}()
	}
	// Writers against the relay bank.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := cl.Write(ctx, relayThing.Addr(), micropnp.Relay, []int32{int32(g + k)}); err != nil {
					errs <- fmt.Errorf("write: %w", err)
				}
			}
		}()
	}
	// Discoverers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Discover(ctx, micropnp.TMP36); err != nil {
				errs <- fmt.Errorf("discover: %w", err)
			}
		}()
	}
	// Subscribers: establish, collect a tick or two, close.
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := cl.Subscribe(ctx, things[g%len(things)].Addr(), micropnp.TMP36, nil)
			if err != nil {
				errs <- fmt.Errorf("subscribe: %w", err)
				return
			}
			d.RunFor(3 * time.Second)
			sub.Close()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRealtimeThroughput is the acceptance test for the concurrent runtime:
// over a hundred goroutines issue Reads against a 1,000-Thing realtime
// deployment; every read must succeed, and closing the deployment must
// leak no goroutines.
func TestRealtimeThroughput(t *testing.T) {
	nThings, readers, perReader := 1000, 120, 4
	if testing.Short() {
		nThings, readers = 300, 100
	}
	before := runtime.NumGoroutine()
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		// A large virtual deadline: the loop fires events in virtual-time
		// order, so replies (sub-second virtual) always beat this expiry
		// even when the worker pool is backlogged on the wall clock.
		micropnp.WithRequestTimeout(30*time.Minute),
	)
	if err != nil {
		t.Fatal(err)
	}
	things := plugFleet(t, d, nThings)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run() // all 1,000 plug-in cascades drain

	ctx := context.Background()
	var wg sync.WaitGroup
	var ok, failed atomic.Int64
	start := time.Now()
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perReader; k++ {
				th := things[(g*perReader+k*31)%len(things)]
				if _, err := cl.Read(ctx, th.Addr(), micropnp.TMP36); err != nil {
					failed.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d/%d concurrent reads failed", f, int64(readers*perReader))
	}
	t.Logf("%d reads by %d goroutines against %d Things in %v (%.0f reads/s)",
		ok.Load(), readers, nThings, elapsed, float64(ok.Load())/elapsed.Seconds())

	d.Close()
	// The loop and every pool worker must exit; allow unrelated runtime
	// goroutines a moment to settle.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after Close", before, after)
	}
}

// TestNestedSDKCallFromCallbackVirtual guards the reentrant pump path: an
// SDK call issued from inside a simulator-driven callback (here a Write
// from OnReading) must pump the simulator recursively, exactly as the
// pre-runtime inline Step loop did, instead of parking on the driver —
// which is this same goroutine, blocked inside its own handler.
func TestNestedSDKCallFromCallbackVirtual(t *testing.T) {
	d, err := micropnp.NewDeployment(micropnp.WithStreamPeriod(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	th := plugFleet(t, d, 1)[0]
	relayThing, err := d.AddThing("relays")
	if err != nil {
		t.Fatal(err)
	}
	relay, err := relayThing.PlugRelay(0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	ctx := context.Background()
	var nestedErr error
	nested := false
	sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.TMP36, func(r micropnp.Reading) {
		if nested {
			return
		}
		nested = true
		// A blocking SDK call from inside the delivery callback.
		nestedErr = cl.Write(ctx, relayThing.Addr(), micropnp.Relay, []int32{0b11})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	done := make(chan struct{})
	go func() {
		d.RunFor(3 * time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested SDK call deadlocked the virtual pump")
	}
	if !nested {
		t.Fatal("stream never delivered; nested call untested")
	}
	if nestedErr != nil {
		t.Fatalf("nested write failed: %v", nestedErr)
	}
	if got := relay.State(); got != 0b11 {
		t.Fatalf("relay state = %08b after nested write", got)
	}
}

// TestCloseUnblocksParkedCalls closes a realtime deployment while readers
// are parked on requests that can never complete (unreachable Thing, huge
// deadline): every parked call must return ErrClosed promptly instead of
// hanging forever on an expiry event the dead clock will never fire.
func TestCloseUnblocksParkedCalls(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(10), // slow: the virtual expiry is hours of wall time away
		micropnp.WithRequestTimeout(24*time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	ghost := netip.MustParseAddr("2001:db8::dead")
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			_, err := cl.Read(context.Background(), ghost, micropnp.TMP36)
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the readers park
	d.Close()
	for g := 0; g < 8; g++ {
		select {
		case err := <-errs:
			if !errors.Is(err, micropnp.ErrClosed) {
				t.Fatalf("parked read returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("read still parked after Close")
		}
	}
}

// TestSubscriptionCloseIdempotent double-closes a subscription in virtual
// mode: the second Close must be a no-op and the handle must stay usable.
func TestSubscriptionCloseIdempotent(t *testing.T) {
	d, err := micropnp.NewDeployment(micropnp.WithStreamPeriod(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	th := plugFleet(t, d, 1)[0]
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	sub, err := cl.Subscribe(context.Background(), th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.RunFor(2500 * time.Millisecond)
	got := len(sub.Readings())
	if got == 0 {
		t.Fatal("no readings before Close")
	}
	sub.Close()
	sub.Close() // idempotent
	if !sub.Closed() {
		t.Fatal("Closed() false after Close")
	}
	d.RunFor(3 * time.Second)
	if after := len(sub.Readings()); after != got {
		t.Fatalf("readings grew after Close: %d -> %d", got, after)
	}
}

// TestSubscriptionCloseConcurrentWithDelivery races many Closes against
// in-flight stream deliveries on the realtime runtime: no panic, no double
// teardown, and Readings stays stable once Close has been observed.
func TestSubscriptionCloseConcurrentWithDelivery(t *testing.T) {
	d, err := micropnp.NewDeployment(
		micropnp.WithRealTime(),
		micropnp.WithTimeScale(throughputScale),
		micropnp.WithRequestTimeout(30*time.Minute),
		micropnp.WithStreamPeriod(500*time.Millisecond), // dense virtual ticks
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	th := plugFleet(t, d, 1)[0]
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	// Stream ticks fire on the network's own goroutines; pace the test on
	// the wall clock rather than virtual spans.
	waitFor := func(cond func() bool) bool {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}

	ctx := context.Background()
	for round := 0; round < 5; round++ {
		var delivered atomic.Int32
		sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.TMP36, func(micropnp.Reading) {
			delivered.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Let ticks flow, then close from several goroutines at once while
		// deliveries are still arriving.
		if !waitFor(func() bool { return delivered.Load() >= 2 }) {
			t.Fatalf("round %d: stream delivered nothing", round)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub.Close()
			}()
		}
		wg.Wait()
		if !sub.Closed() {
			t.Fatal("Closed() false after concurrent Close")
		}
		// The stream keeps ticking on the Thing side; the closed handle
		// must stay stable (modulo the one documented in-flight delivery,
		// which the handle's closed check drops from Readings).
		stable := len(sub.Readings())
		time.Sleep(20 * time.Millisecond)
		if after := len(sub.Readings()); after != stable {
			t.Fatalf("round %d: readings grew after Close: %d -> %d", round, stable, after)
		}
	}
	// The Thing still streams; a fresh subscription must work after all
	// those closes.
	sub, err := cl.Subscribe(ctx, th.Addr(), micropnp.TMP36, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(func() bool { return len(sub.Readings()) > 0 }) {
		t.Fatal("no readings on a fresh subscription after concurrent closes")
	}
	sub.Close()
}

// deadlockGuard runs fn on its own goroutine and fails the test if it has
// not returned within 30 s — a nested SDK call that parks on its own driver
// would otherwise hang the suite.
func deadlockGuard(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s deadlocked", what)
	}
}

// nestedFixture is a deployment for the reentrancy tests: TMP36 probes, a
// relay bank, a spare Thing whose plug-in produces an unsolicited advert,
// and one client. On a zoned deployment the Things spread over zones 1-3
// and background streams keep several lanes busy, so barrier rounds run
// lanes in parallel while callbacks fire.
type nestedFixture struct {
	d      *micropnp.Deployment
	cl     *micropnp.Client
	probe  *micropnp.Thing
	relays *micropnp.Thing
	bank   *micropnp.RelayBank
	spare  *micropnp.Thing
}

func newNestedFixture(t *testing.T, zones, workers int) *nestedFixture {
	t.Helper()
	opts := []micropnp.Option{micropnp.WithStreamPeriod(200 * time.Millisecond)}
	if zones > 1 {
		opts = append(opts, micropnp.WithZones(zones), micropnp.WithShardWorkers(workers))
	}
	d, err := micropnp.NewDeployment(opts...)
	if err != nil {
		t.Fatal(err)
	}
	zone := func(z uint16) micropnp.ThingOption {
		if zones > 1 {
			return micropnp.InZone(z % uint16(zones))
		}
		return micropnp.InZone(0)
	}
	f := &nestedFixture{d: d}
	var probes []*micropnp.Thing
	for z := uint16(1); z <= 3; z++ {
		th, err := d.AddThing(fmt.Sprintf("probe-%d", z), zone(z), micropnp.WithPeripherals(micropnp.TMP36))
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, th)
	}
	f.probe = probes[2]
	if f.relays, err = d.AddThing("relays", zone(2)); err != nil {
		t.Fatal(err)
	}
	if f.bank, err = f.relays.PlugRelay(0); err != nil {
		t.Fatal(err)
	}
	if f.spare, err = d.AddThing("spare", zone(3)); err != nil {
		t.Fatal(err)
	}
	if f.cl, err = d.AddClient(); err != nil {
		t.Fatal(err)
	}
	d.Run()
	for _, th := range probes[:2] {
		sub, err := f.cl.Subscribe(context.Background(), th.Addr(), micropnp.TMP36, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sub.Close)
	}
	return f
}

// nestedOps are the blocking calls issued from inside callbacks; each
// returns an error describing a wrong outcome.
var nestedOps = []struct {
	name string
	call func(f *nestedFixture) error
}{
	{"Read", func(f *nestedFixture) error {
		r, err := f.cl.Read(context.Background(), f.probe.Addr(), micropnp.TMP36)
		if err == nil && len(r.Values) == 0 {
			err = errors.New("empty reading")
		}
		return err
	}},
	{"Write", func(f *nestedFixture) error {
		if err := f.cl.Write(context.Background(), f.relays.Addr(), micropnp.Relay, []int32{0b101}); err != nil {
			return err
		}
		if got := f.bank.State(); got != 0b101 {
			return fmt.Errorf("relay state %08b after nested write", got)
		}
		return nil
	}},
	{"RunFor", func(f *nestedFixture) error {
		before := f.d.Now()
		f.d.RunFor(2 * time.Second)
		if span := f.d.Now() - before; span < 2*time.Second {
			return fmt.Errorf("nested RunFor(2s) advanced the clock by %v", span)
		}
		return nil
	}},
}

// callbackEntries are the simulator-driven callback entry points; each
// registers cb to run once from inside the simulation and then drives the
// deployment until it has.
var callbackEntries = []struct {
	name string
	run  func(f *nestedFixture, cb func()) error
}{
	{"ScheduleAfter", func(f *nestedFixture, cb func()) error {
		f.d.ScheduleAfter(30*time.Millisecond, cb)
		f.d.RunFor(5 * time.Second)
		return nil
	}},
	{"OnAdvert", func(f *nestedFixture, cb func()) error {
		var once atomic.Bool
		f.cl.OnAdvert(func(micropnp.Advert) {
			if once.CompareAndSwap(false, true) {
				cb()
			}
		})
		if err := f.spare.PlugHIH4030(0); err != nil {
			return err
		}
		f.d.RunFor(10 * time.Second)
		return nil
	}},
	{"AddAdvertHook", func(f *nestedFixture, cb func()) error {
		var once atomic.Bool
		f.cl.AddAdvertHook(func(micropnp.Advert) {
			if once.CompareAndSwap(false, true) {
				cb()
			}
		})
		if err := f.spare.PlugHIH4030(0); err != nil {
			return err
		}
		f.d.RunFor(10 * time.Second)
		return nil
	}},
	{"Subscribe", func(f *nestedFixture, cb func()) error {
		var once atomic.Bool
		sub, err := f.cl.Subscribe(context.Background(), f.probe.Addr(), micropnp.TMP36, func(micropnp.Reading) {
			if once.CompareAndSwap(false, true) {
				cb()
			}
		})
		if err != nil {
			return err
		}
		f.d.RunFor(5 * time.Second)
		sub.Close()
		return nil
	}},
}

// TestNestedSDKCallsFromEveryCallbackVirtual issues a blocking Read, Write
// and RunFor from inside each callback entry point, on the single-loop
// clock and on a zoned deployment at shard workers 1 and the default. The
// nested call must drive the simulator inline rather than park on its own
// driver; on the zoned clock the two worker counts must also end in the same
// state, since a nested call settles the interrupted round first.
func TestNestedSDKCallsFromEveryCallbackVirtual(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	type outcome struct {
		now   time.Duration
		stats micropnp.NetworkStats
	}
	for _, entry := range callbackEntries {
		for _, op := range nestedOps {
			t.Run(entry.name+"/"+op.name, func(t *testing.T) {
				var zoned []outcome
				for _, clk := range []struct {
					name           string
					zones, workers int
				}{{"single-loop", 0, 0}, {"zoned/workers=1", 4, 1}, {"zoned/workers=default", 4, 0}} {
					f := newNestedFixture(t, clk.zones, clk.workers)
					ran := false
					var runErr, nestedErr error
					deadlockGuard(t, clk.name+" nested "+op.name, func() {
						runErr = entry.run(f, func() {
							ran = true
							nestedErr = op.call(f)
						})
					})
					if runErr != nil {
						t.Fatalf("%s: %v", clk.name, runErr)
					}
					if !ran {
						t.Fatalf("%s: callback never ran; nested call untested", clk.name)
					}
					if nestedErr != nil {
						t.Fatalf("%s: nested %s: %v", clk.name, op.name, nestedErr)
					}
					if n := f.cl.InFlight(); n != 0 {
						t.Fatalf("%s: %d requests still pending", clk.name, n)
					}
					if clk.zones > 1 {
						zoned = append(zoned, outcome{f.d.Now(), f.d.NetworkStats()})
					}
				}
				if zoned[0] != zoned[1] {
					t.Fatalf("zoned runs diverged across worker counts:\nworkers=1:       %+v\nworkers=default: %+v", zoned[0], zoned[1])
				}
			})
		}
	}
}

// TestConductStrandContext pins the strand-context contract: a strand's
// calls carrying Strand.Context park on the baton and complete, while a
// blocking call that carries no strand — a strand that forgot its context,
// or one driving the clock itself — panics instead of hanging on the
// driver lock the orchestrator holds.
func TestConductStrandContext(t *testing.T) {
	d, err := micropnp.NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	things := plugFleet(t, d, 2)
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	var reads [2]error
	var forgot, drove any
	deadlockGuard(t, "Conduct", func() {
		d.Conduct(
			func(s *micropnp.Strand) {
				_, reads[0] = cl.Read(s.Context(), things[0].Addr(), micropnp.TMP36)
			},
			func(s *micropnp.Strand) {
				defer func() { forgot = recover() }()
				_, _ = cl.Read(context.Background(), things[1].Addr(), micropnp.TMP36)
			},
			func(s *micropnp.Strand) {
				defer func() { drove = recover() }()
				d.RunFor(time.Second)
			},
			func(s *micropnp.Strand) {
				s.Until(s.Now() + 50*time.Millisecond)
				_, reads[1] = cl.Read(s.Context(), things[1].Addr(), micropnp.TMP36)
			},
		)
	})
	for i, err := range reads {
		if err != nil {
			t.Fatalf("strand read %d: %v", i, err)
		}
	}
	for what, p := range map[string]any{"a call without the strand context": forgot, "RunFor on a strand": drove} {
		if msg, _ := p.(string); !strings.Contains(msg, "Strand.Context") {
			t.Fatalf("%s: recovered %v, want a panic naming Strand.Context", what, p)
		}
	}
	// The deployment is usable again once Conduct returned.
	if _, err := cl.Read(context.Background(), things[0].Addr(), micropnp.TMP36); err != nil {
		t.Fatal(err)
	}
}
