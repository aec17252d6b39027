// Command mctrace runs a representative workload and reports what it
// did: by default (-format text) the process-pair message matrix,
// per-rank traffic and the virtual makespan — what a Meta-Chaos
// schedule actually puts on the wire.  -format chrome, collapsed or
// phases attaches the virtual-time observability layer and exports the
// run's spans instead: trace-event JSON for chrome://tracing or
// Perfetto, collapsed stacks for flamegraph.pl, or per-phase totals
// plus counters and histograms.  Output is byte-identical across runs.
//
// Workloads: section and remap (regular HPF section copy, irregular
// CHAOS remap; -procs), mesh (the Table-5 Multiblock Parti section
// move, one schedule reused -iters times; -procs, -n), figure10 (one
// client, -server-procs servers, -vectors vectors) and elastic (a
// server rank dies mid-run and the survivors detect, shrink, restore
// and finish; -server-procs, -iters, -seed picks the crash).
//
// -fault runs over a deterministically faulty network; -reliable lets
// the retransmitting transport recover.  -crash rank@time (or a
// crash-scheduling profile such as -fault crashy) kills a section,
// remap or mesh rank mid-run, and the report grows the crash history
// and each survivor's outcome.
//
// Usage:
//
//	mctrace -workload section -fault lossy -seed 7 -reliable
//	mctrace -workload section -crash 2@0.004 -reliable
//	mctrace -workload figure10 -format chrome -o trace.json
//	mctrace -workload mesh -procs 8 -format collapsed | flamegraph.pl > flame.svg
//	mctrace -workload elastic -server-procs 4 -format phases
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"metachaos"
	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/exp"
	"metachaos/internal/faultsim"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

func main() {
	workload := flag.String("workload", "section", "workload: section, remap, mesh, figure10 or elastic")
	procs := flag.Int("procs", 4, "process count (section, remap and mesh workloads)")
	serverProcs := flag.Int("server-procs", 2, "server process count (figure10 and elastic workloads)")
	vectors := flag.Int("vectors", 1, "vectors shipped through the coupling (figure10 workload)")
	size := flag.Int("n", 256, "mesh dimension (mesh workload)")
	iters := flag.Int("iters", 4, "schedule reuses (mesh workload) or solver iterations (elastic)")
	fault := flag.String("fault", "none", "fault profile: none, mild, lossy, random, crashy or flaky")
	seed := flag.Uint64("seed", 1, "fault profile seed; for the elastic workload the crash-site seed (default 7 there)")
	reliable := flag.Bool("reliable", false, "enable the retransmitting reliable transport")
	crash := flag.String("crash", "", "schedule fail-stop crashes: rank@time[,rank@time...], e.g. 2@0.004")
	format := flag.String("format", "text", "output format: text, chrome, collapsed or phases")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	export, ok := map[string]func(*obs.Tracer, io.Writer) error{
		"text":      nil,
		"chrome":    (*obs.Tracer).WriteChromeTrace,
		"collapsed": (*obs.Tracer).WriteCollapsed,
		"phases":    (*obs.Tracer).WriteReport,
	}[*format]
	if !ok {
		fail(2, "unknown format %q", *format)
	}

	prof, err := faultsim.ByName(*fault, *seed)
	if err != nil {
		fail(2, "%v", err)
	}
	if *crash != "" {
		if prof == nil {
			prof = &faultsim.Profile{Seed: *seed}
		}
		for _, spec := range strings.Split(*crash, ",") {
			rank, at, err := parseCrash(spec)
			if err != nil {
				fail(2, "-crash %q: %v", spec, err)
			}
			prof = prof.WithCrash(rank, at)
		}
	}
	var inj mpsim.FaultInjector
	if prof != nil {
		inj = prof
	}
	var rel *mpsim.Reliability
	if *reliable {
		rel = &mpsim.Reliability{}
	}
	var tr *obs.Tracer
	if export != nil {
		tr = obs.NewTracer()
	}
	crashes := prof.HasCrashes()
	if crashes && *workload == "figure10" {
		fail(2, "the figure10 workload does not take crash faults; see -workload elastic")
	}
	if *workload == "elastic" && (prof != nil || *reliable) {
		fail(2, "the elastic workload schedules its own crash on a perfect network; drop -fault, -crash and -reliable")
	}
	var outcomes []string
	runSPMD := func(nprocs int, body func(p *mpsim.Proc)) *mpsim.Stats {
		wrapped := body
		if crashes {
			// Under fail-stop faults a survivor's blocked operation
			// panics with a peer-death error; run each rank's workload
			// in a deadline scope so the trace completes and reports
			// every rank's outcome instead of aborting.
			outcomes = make([]string, nprocs)
			wrapped = func(p *mpsim.Proc) {
				r := p.Rank()
				if err := p.WithTimeout(0.5, func() { body(p) }); err != nil {
					outcomes[r] = err.Error()
				} else {
					outcomes[r] = "completed"
				}
			}
		}
		return mpsim.Run(mpsim.Config{
			Machine:  mpsim.SP2(),
			Fault:    inj,
			Reliable: rel,
			Crash:    prof.CrashPlan(),
			Obs:      tr,
			Programs: []mpsim.ProgramSpec{{Name: "spmd", Procs: nprocs, Body: wrapped}},
		})
	}

	var stats *metachaos.Stats
	switch *workload {
	case "section":
		stats = runSPMD(*procs, sectionBody(*procs))
	case "remap":
		stats = runSPMD(*procs, remapBody(*procs))
	case "mesh":
		stats = runSPMD(*procs, exp.SectionMeshBody(*size, *procs, *iters))
	case "figure10":
		stats = exp.RunClientServerStats(exp.CSConfig{
			ClientProcs: 1, ServerProcs: *serverProcs, Vectors: *vectors,
			Fault: inj, Reliable: *reliable, Obs: tr,
		})
	case "elastic":
		if !seedSet {
			*seed = 7
		}
		res := exp.RunElasticCrash(exp.ElasticConfig{ServerProcs: *serverProcs, Iters: *iters, Seed: *seed, Obs: tr})
		for _, c := range res.Crashes {
			fmt.Fprintf(os.Stderr, "mctrace: rank %d died at %.3fms, detected at %.3fms; %d shrink(s), %d restore(s), %d server(s) finished\n",
				c.Rank, c.At*1000, c.DetectedAt*1000, res.Shrinks, res.Restores, res.Survivors)
		}
		stats = res.Stats
	default:
		fail(2, "unknown workload %q", *workload)
	}
	if n := tr.OpenSpans(); n != 0 {
		fail(1, "%d spans left open after the run", n)
	}

	err = writeOutput(*out, func(w io.Writer) error {
		if export != nil {
			return export(tr, w)
		}
		report(w, stats)
		reportCrashes(w, stats, outcomes)
		return nil
	})
	if err != nil {
		fail(1, "%v", err)
	}
}

// fail reports an error and exits with the given status.
func fail(status int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mctrace: "+format+"\n", args...)
	os.Exit(status)
}

// writeOutput runs write against a buffered stdout or, with a path,
// a new file.  The buffer is flushed and the file closed on every
// path; the first error of the write, the flush and the close wins.
func writeOutput(path string, write func(io.Writer) error) error {
	f := os.Stdout
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(f)
	err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if path != "" {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// sectionBody is a regular section copy between two block arrays.
func sectionBody(nprocs int) func(p *mpsim.Proc) {
	const n = 64
	return func(p *mpsim.Proc) {
		ctx := metachaos.NewCtx(p, p.Comm())
		src := metachaos.NewHPFArray(metachaos.Block2D(n, n, nprocs), p.Rank())
		dst := metachaos.NewHPFArray(metachaos.Block2D(n, n, nprocs), p.Rank())
		src.FillGlobal(func(c []int) float64 { return float64(c[0]) })
		sched, err := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{0, 0}, []int{n / 2, n})), Ctx: ctx},
			&metachaos.Spec{Lib: metachaos.HPF, Obj: dst,
				Set: metachaos.NewSetOfRegions(metachaos.NewSection([]int{n / 2, 0}, []int{n, n})), Ctx: ctx},
			metachaos.Cooperation)
		if err != nil {
			panic(err)
		}
		sched.Move(src, dst)
	}
}

// remapBody is an irregular remap (translation-table traffic).
func remapBody(nprocs int) func(p *mpsim.Proc) {
	const n = 1024
	return func(p *mpsim.Proc) {
		ctx := core.NewCtx(p, p.Comm())
		// Stride permutation as the "bad" initial distribution.
		var mine []int32
		for g := p.Rank(); g < n; g += nprocs {
			mine = append(mine, int32((g*7)%n))
		}
		x, err := metachaos.NewChaosArray(ctx, mine)
		if err != nil {
			panic(err)
		}
		lo, hi := p.Rank()*n/nprocs, (p.Rank()+1)*n/nprocs
		contiguous := make([]int32, hi-lo)
		for g := lo; g < hi; g++ {
			contiguous[g-lo] = int32(g)
		}
		if _, err := chaoslib.Remap(ctx, x, contiguous); err != nil {
			panic(err)
		}
	}
}

func report(w io.Writer, st *metachaos.Stats) {
	fmt.Fprintf(w, "machine: %s\n", st.Machine)
	fmt.Fprintf(w, "virtual makespan: %.3f ms\n", st.MakespanSeconds*1000)
	fmt.Fprintf(w, "total: %d messages, %d bytes\n\n", st.TotalMsgs(), st.TotalBytes())

	fmt.Fprintln(w, "per-rank traffic:")
	for r := range st.PerRank {
		rs := st.PerRank[r]
		fmt.Fprintf(w, "  rank %2d: sent %5d msgs / %8d B   recv %5d msgs / %8d B\n",
			r, rs.MsgsSent, rs.BytesSent, rs.MsgsRecv, rs.BytesRecv)
	}

	if st.TotalDrops()+st.TotalRetransmits() > 0 || reliabilityTouched(st) {
		fmt.Fprintln(w, "\nreliability (per rank):")
		for r := range st.PerRank {
			rs := st.PerRank[r]
			fmt.Fprintf(w, "  rank %2d: drops %4d  rexmit %4d  dup-disc %4d  corrupt-disc %4d  timeouts %3d  failed-sends %3d\n",
				r, rs.Drops, rs.Retransmits, rs.DupsDiscarded, rs.CorruptDiscarded, rs.Timeouts, rs.FailedSends)
		}
		fmt.Fprintf(w, "  total: %d drops, %d retransmits\n", st.TotalDrops(), st.TotalRetransmits())
	}

	fmt.Fprintln(w, "\nmessage matrix (from -> to: msgs/bytes):")
	keys := make([]metachaos.PairKey, 0, len(st.Pairs))
	for k := range st.Pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].From != keys[b].From {
			return keys[a].From < keys[b].From
		}
		return keys[a].To < keys[b].To
	})
	for _, k := range keys {
		ps := st.Pairs[k]
		if ps.Drops+ps.Retransmits+ps.DupsDiscarded > 0 {
			fmt.Fprintf(w, "  %2d -> %2d: %4d msgs %8d B   (drops %d, rexmit %d, dup-disc %d)\n",
				k.From, k.To, ps.Msgs, ps.Bytes, ps.Drops, ps.Retransmits, ps.DupsDiscarded)
			continue
		}
		fmt.Fprintf(w, "  %2d -> %2d: %4d msgs %8d B\n", k.From, k.To, ps.Msgs, ps.Bytes)
	}
}

// parseCrash parses one "rank@time" crash spec.
func parseCrash(spec string) (rank int, at float64, err error) {
	r, t, ok := strings.Cut(strings.TrimSpace(spec), "@")
	if !ok {
		return 0, 0, fmt.Errorf("want rank@time")
	}
	if rank, err = strconv.Atoi(r); err != nil || rank < 0 {
		return 0, 0, fmt.Errorf("bad rank %q", r)
	}
	if at, err = strconv.ParseFloat(t, 64); err != nil || at < 0 {
		return 0, 0, fmt.Errorf("bad time %q (virtual seconds)", t)
	}
	return rank, at, nil
}

// reportCrashes prints the run's fail-stop history: who died and when,
// how long the heartbeat detector took to notice, restarts, and what
// each rank's workload came to.
func reportCrashes(w io.Writer, st *metachaos.Stats, outcomes []string) {
	if len(st.Crashes) == 0 {
		return
	}
	fmt.Fprintln(w, "\ncrash faults:")
	for _, c := range st.Crashes {
		fmt.Fprintf(w, "  rank %2d died at %.3f ms", c.Rank, c.At*1000)
		if c.DetectedAt > 0 {
			fmt.Fprintf(w, ", detected at %.3f ms (lag %.3f ms)", c.DetectedAt*1000, (c.DetectedAt-c.At)*1000)
		} else {
			fmt.Fprintf(w, ", not detected before the run ended")
		}
		if c.RestartAt > 0 {
			fmt.Fprintf(w, ", restarted at %.3f ms", c.RestartAt*1000)
		}
		fmt.Fprintln(w)
	}
	var timeouts, failedSends int64
	for r := range st.PerRank {
		timeouts += st.PerRank[r].Timeouts
		failedSends += st.PerRank[r].FailedSends
	}
	fmt.Fprintf(w, "  detector: %d crash(es) recorded; %d timeouts, %d abandoned sends across ranks\n",
		len(st.Crashes), timeouts, failedSends)
	for r, o := range outcomes {
		if o != "" {
			fmt.Fprintf(w, "  rank %2d outcome: %s\n", r, o)
		}
	}
}

// reliabilityTouched reports whether any rank recorded reliability
// activity (covers runs where everything was clean but discarded).
func reliabilityTouched(st *metachaos.Stats) bool {
	for r := range st.PerRank {
		rs := st.PerRank[r]
		if rs.Drops+rs.Retransmits+rs.DupsDiscarded+rs.CorruptDiscarded+rs.Timeouts+rs.FailedSends > 0 {
			return true
		}
	}
	return false
}
