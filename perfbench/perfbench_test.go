package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the sim-zoned child process, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps the metric contract in one place:
// the names and units BENCHMARK.json declares are exactly the ones the
// benchmark reports, and so are the workloads.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(set string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", set, len(declared), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok {
				t.Errorf("%s: %s is declared but not reported", set, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s: %s is declared in %s but reported in %s", set, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the code has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// TestTinyRuns runs every workload, untraced and traced, at tiny sizes and
// checks that every output check passes and that every metric
// BENCHMARK.json names is printed with its unit, in the human lines and in
// the result line.
func TestTinyRuns(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
					"--tiny", "--trace-out", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultJSON
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d\n%s", res.Correct, res.Attempted, out.String())
				}
				declared := b.EndToEnd
				if trace == "1" {
					declared = b.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("result: %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
					printed := false
					for _, l := range lines {
						f := strings.Fields(l)
						if len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
							printed = true
						}
					}
					if !printed {
						t.Errorf("%s is not printed with its unit %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}

// TestRefusesMoreGeneratorsThanCPUs checks the nproc guard: a generator
// wider than the machine does not start and prints no result.
func TestRefusesMoreGeneratorsThanCPUs(t *testing.T) {
	wide := runtime.NumCPU() + 1
	workloads["too-wide"] = workload{goroutines: wide, connections: wide,
		run: func(*config, *report) error { t.Error("generator started"); return nil }}
	defer delete(workloads, "too-wide")
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "too-wide"}, &out, &errOut); code == 0 {
		t.Fatalf("exit 0, want a refusal")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Errorf("a refused run printed a result:\n%s", out.String())
	}
}

// TestHistQuantile checks the histogram against exact quantiles.
func TestHistQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(timeUS(float64(i)))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}} {
		if got := h.quantileUS(c.q); got < c.want*0.995 || got > c.want*1.005 {
			t.Errorf("q%.2f = %.2f µs, want %.0f ± 0.5%%", c.q, got, c.want)
		}
	}
}

func timeUS(us float64) time.Duration { return time.Duration(us * 1e3) }

// TestExactRepeat checks the figures that must repeat exactly for one
// seed: the simulated latency and the completion ratio on sdk-read and
// sim-zoned, and the allocation count on sdk-read.
func TestExactRepeat(t *testing.T) {
	exact := map[string][]string{
		"sdk-read":  {"virt_p50_ms", "allocs_per_op", "ok_ratio"},
		"sim-zoned": {"virt_p50_ms", "ok_ratio"},
	}
	for w, names := range exact {
		var first map[string]metricJSON
		for i := 0; i < 2; i++ {
			var out, errOut bytes.Buffer
			if code := run([]string{"--workload", w, "--seed", "11", "--seconds", "0.2", "--tiny"}, &out, &errOut); code != 0 {
				t.Fatalf("%s: exit %d: %s", w, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, n := range names {
				if n == "allocs_per_op" && raceEnabled {
					continue
				}
				if res.Metrics[n] != first[n] {
					t.Errorf("%s %s: %v then %v", w, n, first[n].Value, res.Metrics[n].Value)
				}
			}
		}
	}
}
