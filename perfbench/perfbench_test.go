package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// daemonBin is an mcserved built once for the tests.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "mcserved")
	build := exec.Command("go", "build", "-o", daemonBin, "metachaos/cmd/mcserved")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("building mcserved: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// lastResult runs the command line and decodes its last stdout line.
func lastResult(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	return res
}

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, and demands exactly the catalog's metrics with their units.
// A missing or renamed metric fails here.
func TestSmokeEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				res := lastResult(t, "--workload", w.name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--tiny", "--daemon", daemonBin)
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("missing metric %s", d.Name)
						continue
					}
					if got.Unit != d.Unit {
						t.Errorf("%s: unit %q, want %q", d.Name, got.Unit, d.Unit)
					}
				}
			})
		}
	}
}

// TestPlantedMismatchIsCounted plants one wrong result in each
// workload and checks that its correctness check counts it, and that
// the same run without the plant counts nothing.
func TestPlantedMismatchIsCounted(t *testing.T) {
	for _, w := range workloads {
		for _, plant := range []bool{false, true} {
			cfg := runCfg{seed: 5, seconds: 0.5, setups: 1, tiny: true, plant: plant, daemon: daemonBin}
			out, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if plant && out.failed < 1 {
				t.Errorf("%s: planted mismatch not counted (attempted %d)", w.name, out.attempted)
			}
			if !plant && out.failed != 0 {
				t.Errorf("%s: %d failures without a plant", w.name, out.failed)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		if _, ok := findWorkload(sw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run here", sw.Name)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalog", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
