// Internal tests of the virtual-mode driver protocol: they reach the
// client's send hook and the deployment's lock-wait hook to force exact
// interleavings instead of relying on the scheduler.
package micropnp

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegisterSendAtomicVirtual forces the register/send interleaving: a
// read has registered (arming its 5 s expiry) but not yet sent its datagram
// when another goroutine sets out to drive the simulator to idle. At that
// instant the expiry is the only queued event, so a step there would jump
// the clock to it and time the read out, its reply arriving later as an
// unmatched unicast. The read's start runs under the driver lock, so the
// other driver must wait until the datagram is on the network.
func TestRegisterSendAtomicVirtual(t *testing.T) {
	d, err := NewDeployment()
	if err != nil {
		t.Fatal(err)
	}
	th, err := d.AddThing("probe", WithPeripherals(TMP36))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	d.Run()

	blocked := make(chan struct{})
	var reached sync.Once
	d.lockWaitHook = func() { reached.Do(func() { close(blocked) }) }
	runDone := make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	cl.cl.SetSendHook(func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		go func() {
			defer close(runDone)
			d.Run()
		}()
		// Hold the read between registration and send until the second
		// driver reaches the lock (or, were the lock not held, has already
		// drained the simulator).
		select {
		case <-blocked:
		case <-runDone:
		case <-time.After(10 * time.Second):
			t.Error("second driver never reached the driver lock")
		}
	})

	done := make(chan struct{})
	var r Reading
	var rerr error
	start := d.Now()
	go func() {
		defer close(done)
		r, rerr = cl.Read(context.Background(), th.Addr(), TMP36)
		<-runDone
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("read or concurrent Run deadlocked")
	}
	if armed.Load() {
		t.Fatal("send hook never fired")
	}
	if rerr != nil {
		t.Fatalf("read with a driver contending at the register/send seam: %v", rerr)
	}
	if lat := r.At - start; lat >= time.Second {
		t.Fatalf("read completed %v after issue: the expiry fired before the datagram left", lat)
	}
	if n := cl.InFlight(); n != 0 {
		t.Fatalf("%d requests still pending", n)
	}
}

// TestNoStackWalkOffCallbacks pins where goroutine identity is paid for:
// a single caller's reads, writes, discoveries, subscriptions and drives,
// and every call a conducted strand makes with its context, never walk the
// stack; a nested call from a callback does, once per driver tenure.
func TestNoStackWalkOffCallbacks(t *testing.T) {
	d, err := NewDeployment(WithStreamPeriod(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	th, err := d.AddThing("probe", WithPeripherals(TMP36))
	if err != nil {
		t.Fatal(err)
	}
	relays, err := d.AddThing("relays", WithPeripherals(Relay))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	walks := func(what string, want bool, fn func()) {
		t.Helper()
		before := d.stackWalks.Load()
		fn()
		if got := d.stackWalks.Load() - before; (got > 0) != want {
			t.Fatalf("%s: %d stack walks", what, got)
		}
	}
	walks("single caller", false, func() {
		d.Run()
		for i := 0; i < 50; i++ {
			if _, err := cl.Read(ctx, th.Addr(), TMP36); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Write(ctx, relays.Addr(), Relay, []int32{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Discover(ctx, TMP36); err != nil {
			t.Fatal(err)
		}
		sub, err := cl.Subscribe(ctx, th.Addr(), TMP36, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.RunFor(3 * time.Second)
		sub.Close()
		d.Quiesce(time.Second)
	})
	walks("conducted strands", false, func() {
		d.Conduct(func(s *Strand) {
			for i := 0; i < 20; i++ {
				if _, err := cl.Read(s.Context(), th.Addr(), TMP36); err != nil {
					t.Error(err)
				}
			}
		}, func(s *Strand) {
			if err := cl.Write(s.Context(), relays.Addr(), Relay, []int32{2}); err != nil {
				t.Error(err)
			}
		})
	})
	walks("nested call from a callback", true, func() {
		d.ScheduleAfter(time.Millisecond, func() {
			if _, err := cl.Read(ctx, th.Addr(), TMP36); err != nil {
				t.Error(err)
			}
		})
		d.RunFor(time.Second)
	})
}
