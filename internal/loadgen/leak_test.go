package loadgen

import (
	"runtime"
	"testing"
	"time"
)

// TestRunReleasesDeployments runs the zoned and fleet presets twice each:
// every deployment a run builds must be closed once its result is taken, so
// the sharded clocks' worker pools exit (and the simulations they reference
// become garbage) and the goroutine count returns to its baseline.
func TestRunReleasesDeployments(t *testing.T) {
	// Several workers per zoned deployment, so a leaked pool shows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before := runtime.NumGoroutine()
	for _, name := range []string{"zoned", "fleet"} {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := Run(cfg); err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before the runs, %d after", before, after)
	}
}
