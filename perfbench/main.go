// Command perfbench is the repository's benchmark: it runs one seeded
// workload through the public Go APIs of the simulator, the coupling
// core, the five runtime libraries and the coupling daemon, checks
// every result, and prints the end-to-end metrics (--trace 0) or the
// per-layer ladder (--trace 1).  The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	python3 perfbench/run.py --workload couple-cold --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for every metric, the layer map and
// the first baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// defaultSeed is the seed numbers are quoted at; heldOutSeed is
	// kept back so a later claim can be confirmed on a seed not used
	// while writing it.
	defaultSeed = 1
	heldOutSeed = 20261017
	// probeSeconds is the timed length of a probe run (see probes).
	probeSeconds = 1.5
	// setups is how many times an untraced run sets up; setup_s is the
	// median.
	setups = 11
)

// runCfg is what a workload run is given.
type runCfg struct {
	seed    int64
	seconds float64
	setups  int
	tr      *tracer // nil: untraced
	tiny    bool    // self-test sizes
	plant   bool    // plant one wrong result (self-test)
	daemon  string  // mcserved binary
}

// workload is one named load.  provides lists the per-layer metrics
// its own ops measure; a traced run takes any other per-layer metric
// from a probe of the workload that provides it.
type workload struct {
	name     string
	run      func(cfg runCfg) (*outcome, error)
	provides []string
}

var coupleProvides = []string{
	"mpsim.world_start_ms", "mpsim.barrier_us", "mpsim.cpu_util",
	"mpsim.msgs_per_op", "mpsim.bytes_per_op", "mpsim.vtime_ms_per_op",
	"core.schedule_ms", "core.schedule_allocs", "core.schedule_share",
	"core.move_us", "core.move_allocs", "core.bytes_copied_per_move", "core.elems_per_move",
	"hpfrt.owned_positions_ms", "hpfrt.owned_positions_allocs",
	"mbparti.owned_positions_ms", "mbparti.owned_positions_allocs",
	"chaoslib.owned_positions_ms", "chaoslib.owned_positions_allocs",
	"pcxxrt.owned_positions_ms", "pcxxrt.owned_positions_allocs",
	"lparx.owned_positions_ms", "lparx.owned_positions_allocs",
	"chaoslib.table_build_ms", "runtime.gc_cpu_share",
}

var workloads = []workload{
	{
		name:     "couple-warm",
		run:      func(c runCfg) (*outcome, error) { return runCouple(c, true) },
		provides: append([]string{"core.moveadd_us", "core.movereverse_us"}, coupleProvides...),
	},
	{
		name:     "couple-cold",
		run:      func(c runCfg) (*outcome, error) { return runCouple(c, false) },
		provides: coupleProvides,
	},
	{
		name: "serve-mixed",
		run:  runServe,
		provides: []string{
			"serve.register_ms", "serve.open_ms", "serve.close_ms",
			"serve.move_ms", "serve.moveadd_ms", "serve.movereverse_ms",
			"serve.ops_per_batch", "serve.cache_hit_rate", "serve.open_warm_share",
			"serve.open_repaired_share", "serve.cache_evictions", "serve.worlds",
			"serve.sessions_end", "serve.backpressure_total", "serve.retryable_total",
			"serve.daemon_cpu_ms_per_op", "runtime.gc_cpu_share",
		},
	},
	{
		name: "sim-sharded",
		run:  runSim,
		provides: []string{
			"mpsim.world_start_ms", "mpsim.cpu_util", "mpsim.shard_speedup",
			"mpsim.vtime_ms_per_op", "runtime.gc_cpu_share",
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string
	traceDir string
	tiny     bool
}

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		liveDaemons.stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(1)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN, secs int
	fs.StringVar(&o.workload, "workload", "", "workload: couple-cold, couple-warm, serve-mixed or sim-sharded")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.IntVar(&secs, "seconds", 10, "timed length of the run in seconds")
	fs.IntVar(&traceN, "trace", 0, "0: end-to-end metrics; 1: per-layer ladder")
	fs.StringVar(&o.daemon, "daemon", "", "mcserved binary (serve-mixed and its probes)")
	fs.StringVar(&o.traceDir, "trace-dir", "", "directory for the traced run's Chrome trace (empty: not written)")
	fs.BoolVar(&o.tiny, "tiny", false, "self-test sizes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds, o.trace = float64(secs), traceN == 1
	if _, ok := findWorkload(o.workload); !ok || secs < 1 || (traceN != 0 && traceN != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, host, err := benchmark(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rb)
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// benchmark runs one workload and folds its outcome into the result.
func benchmark(o options, log io.Writer) (*result, map[string]any, error) {
	w, _ := findWorkload(o.workload)
	cfg := runCfg{seed: o.seed, seconds: o.seconds, setups: setups, tiny: o.tiny, daemon: o.daemon}
	host := hostShape(o)
	res := &result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	samples := map[string]int{}
	host["samples"] = samples

	if !o.trace {
		out, err := w.run(cfg)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted, res.Failed = out.attempted, out.failed
		values = out.endToEndMetrics()
		samples["op"], samples["setup"] = len(out.lat), len(out.setups)
	} else {
		// An untraced half gives the overhead baseline; the traced half
		// gives the ladder.
		half := cfg
		half.seconds, half.setups = o.seconds/2, 1
		base, err := w.run(half)
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		half.tr = tr
		traced, err := w.run(half)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted = base.attempted + traced.attempted
		res.Failed = base.failed + traced.failed
		values = traced.layer
		codecProbe(values, traced.msgSizes)
		values["op_p90_ms"] = quantile(base.lat, 0.90)
		values["op_p99_ms"] = quantile(base.lat, 0.99)
		values["allocs_per_op"] = float64(base.mallocs) / math.Max(1, float64(len(base.lat)))
		values["trace.overhead_ms"] = quantile(traced.lat, 0.5) - quantile(base.lat, 0.5)
		samples["op"], samples["traced_op"] = len(base.lat), len(traced.lat)
		printLadder(log, w.name, tr.ladder())

		probed, err := probes(w, cfg, values, log)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += probed.attempted
		res.Failed += probed.failed
		values["fail_ratio"] = float64(res.Failed) / math.Max(1, float64(res.Attempted))
		host["probes"] = probed.names
		if o.traceDir != "" {
			if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
				return nil, nil, err
			}
			path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
			meta := map[string]any{"host": host, "ladder": tr.ladder()}
			if err := tr.writeChrome(path, meta); err != nil {
				return nil, nil, err
			}
			fmt.Fprintf(log, "perfbench: trace written to %s\n", path)
		}
	}
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	res.Correct = res.Failed == 0
	var missing []string
	for _, d := range want {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("%s measured no value for %s", w.name, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return nil, nil, errors.New(w.name + " attempted no op")
	}
	return res, host, nil
}

// probeSummary is what the probes of a traced run added.
type probeSummary struct {
	attempted, failed int64
	names             []string
}

// probes fills the per-layer metrics a workload's own ops do not reach
// with short traced runs of the workloads that do, in workload order,
// each only if it provides a metric still missing.
func probes(primary workload, cfg runCfg, values map[string]float64, log io.Writer) (probeSummary, error) {
	var sum probeSummary
	for _, w := range workloads {
		if w.name == primary.name || !missingAny(values, w.provides) {
			continue
		}
		pc := cfg
		pc.seconds, pc.setups, pc.tr = probeSeconds, 1, newTracer()
		start := time.Now()
		out, err := w.run(pc)
		if err != nil {
			return sum, fmt.Errorf("probe %s: %w", w.name, err)
		}
		sum.attempted += out.attempted
		sum.failed += out.failed
		var took []string
		for _, name := range w.provides {
			if v, ok := out.layer[name]; ok && isMissing(values, name) {
				values[name] = v
				took = append(took, name)
			}
		}
		sort.Strings(took)
		sum.names = append(sum.names, w.name)
		fmt.Fprintf(log, "perfbench: probe %s (%.1fs) gave %s\n", w.name, time.Since(start).Seconds(), strings.Join(took, " "))
	}
	return sum, nil
}

func isMissing(values map[string]float64, name string) bool {
	v, ok := values[name]
	return !ok || math.IsNaN(v)
}

func missingAny(values map[string]float64, names []string) bool {
	for _, n := range names {
		if isMissing(values, n) {
			return true
		}
	}
	return false
}

// hostShape records what a result was measured on, so numbers from
// different host shapes are never compared silently.
func hostShape(o options) map[string]any {
	h := map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"workload":      o.workload,
		"seed":          o.seed,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
		"trace":         o.trace,
	}
	if o.workload == "serve-mixed" || o.trace {
		h["mcserved_flags"] = daemonFlags("<socket>")
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
