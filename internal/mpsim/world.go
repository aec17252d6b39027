package mpsim

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"metachaos/internal/bufpool"
	"metachaos/internal/obs"
)

// ProgramSpec describes one SPMD program participating in a simulated
// run.  The paper's experiments use one program (Tables 1, 2, 5), two
// coupled peer programs (Tables 3, 4) and a client/server pair
// (Figures 10-15); each maps to one ProgramSpec per program.
type ProgramSpec struct {
	// Name labels the program in errors and statistics.
	Name string
	// Procs is the number of processes the program runs with.
	Procs int
	// ProcsPerNode is how many of the program's processes share one
	// node (and therefore one network link).  Zero means one per node.
	ProcsPerNode int
	// Body is the SPMD function every process of the program executes.
	Body func(p *Proc)
}

// Config assembles a full simulated run: the machine model plus the set
// of programs that will execute concurrently on disjoint nodes.
type Config struct {
	Machine  *Machine
	Programs []ProgramSpec
	// Trace enables event recording; the trace is returned in the
	// run's Stats.
	Trace bool
	// Fault, when non-nil, routes every inter-node transmission through
	// the fault injector (drops, duplicates, reordering, corruption).
	Fault FaultInjector
	// Reliable, when non-nil, enables the reliable transport (sequence
	// numbers, acks, retransmission, dedup/reassembly) on inter-node
	// links, restoring in-order exactly-once delivery under faults.
	Reliable *Reliability
	// Obs, when non-nil, records virtual-time spans and metrics for
	// every messaging operation (and, through the layers above, every
	// data-move phase).  nil keeps the hot paths allocation-free.
	Obs *obs.Tracer
	// Crash, when non-nil, supplies fail-stop crash faults: ranks die
	// at scheduled virtual times (and may restart).  See crash.go for
	// the failure model.  nil keeps every crash hook off the hot paths.
	Crash CrashPlan
	// Detect configures the failure detector used with Crash; nil with
	// a crash plan installs DefaultDetector().
	Detect *Detector
	// Join, when non-nil, supplies elastic scale-out: ranks listed in
	// the plan start dormant and launch their program bodies at
	// scheduled virtual times.  See join.go for the membership model.
	Join JoinPlan
	// Shards selects how many scheduler shards run the world: 1 (or
	// negative) runs it as one shard with an unbounded window, N > 1
	// requests N parallel shards, and 0 (the default) consults the
	// MPSIM_SHARDS environment variable and then auto-shards worlds of
	// >= 256 ranks across min(GOMAXPROCS, nodes).  Every shard count
	// yields bit-identical results; see shard.go.
	Shards int

	// lookahead caps an N-shard run's conservative lookahead window in
	// virtual seconds.  Zero derives the largest safe window from the
	// machine's latency floor; smaller values are honored (tests use
	// them to stress the window protocol), larger ones are clamped to
	// the safe bound.
	lookahead float64
}

// World is the simulated machine state for one run.  It owns every
// simulated process, the per-node link reservations, and the cooperative
// scheduler that sequentializes execution in virtual-time order.
type World struct {
	machine   *Machine
	procs     []*Proc
	nodes     []*node
	stats     Stats
	trace     *Trace
	progNames []string
	progRanks map[string][]int

	// Observability (nil when Config.Obs was nil).  Counters are
	// resolved once here so per-message accounting never hits the
	// registry maps.
	obs  *obs.Tracer
	obsC obsCounters

	// timers is the coordinator's global heap: the transport, crash and
	// join timers of an N-shard run.  A one-shard run's shard owns every
	// timer, so there it stays empty.
	timers timerHeap
	// tseq[r] is rank r's per-rank timer sequence counter: the third key
	// of the event total order (time, rank, seq).  Each rank registers
	// its timers in virtual-position order in both engines, so the
	// numbering — and therefore every tie-break — is invariant under
	// the shard count.
	tseq []int
	net  *netLayer

	// pool backs the zero-copy data plane: every payload and pooled
	// segment moving through this world comes from here.
	pool *bufpool.Pool

	// msgPool catches message-struct recycling overflow.  Per-proc
	// freelists (Proc.msgFree) serve the hot path without
	// synchronization, but structs migrate from sender to receiver on
	// claim, so one-directional traffic would drain every sender's list
	// forever; receivers overflow here and senders refill from here.
	msgPool sync.Pool

	// sh is the scheduler: the world's ranks partitioned into one or
	// more shards.
	sh shardedRun

	// Crash-fault state (nil when Config.Crash was nil).
	crash *crashState
	// Elastic-growth state (nil when Config.Join was nil).
	join *joinState

	failure *runFailure
}

type runFailure struct {
	rank int
	prog string
	err  any
}

type schedEvent struct {
	p *Proc
}

type node struct {
	id         int
	outFreeAt  float64
	inFreeAt   float64
	procsOnOut int
}

// procState tracks where a simulated process is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateBlocked // waiting in Recv with no matching message
	stateDone
)

// Run executes the configured programs to completion and returns the
// accumulated statistics.  It panics with a descriptive error if any
// process body panics or if the run deadlocks (every live process is
// blocked in Recv).
func Run(cfg Config) *Stats {
	w, err := newWorld(cfg)
	if err != nil {
		panic(err)
	}
	w.sh.run()
	if w.failure != nil {
		panic(fmt.Sprintf("mpsim: program %q rank %d panicked: %v",
			w.failure.prog, w.failure.rank, w.failure.err))
	}
	w.stats.Trace = w.trace
	w.stats.Crashes = w.crashRecords()
	w.stats.Joins = w.joinRecords()
	if w.obs != nil {
		w.obs.MetricsRegistry().Gauge("mpsim.makespan_seconds").Set(w.stats.MakespanSeconds)
	}
	return &w.stats
}

// RunSPMD is the common single-program case: n processes, one per node,
// all running body.
func RunSPMD(m *Machine, n int, body func(p *Proc)) *Stats {
	return Run(Config{
		Machine:  m,
		Programs: []ProgramSpec{{Name: "spmd", Procs: n, Body: body}},
	})
}

func newWorld(cfg Config) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpsim: config has no machine")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Programs) == 0 {
		return nil, fmt.Errorf("mpsim: config has no programs")
	}
	w := &World{
		machine:   cfg.Machine,
		progRanks: make(map[string][]int),
		pool:      bufpool.New(),
	}
	if cfg.Trace {
		w.trace = &Trace{}
	}
	if cfg.Obs != nil {
		w.obs = cfg.Obs
		w.obsC.resolve(cfg.Obs.MetricsRegistry())
	}
	if cfg.Fault != nil || cfg.Reliable != nil {
		w.net = newNetLayer(w, cfg.Fault, cfg.Reliable)
	}
	w.stats.Machine = cfg.Machine.Name
	nodeID := 0
	worldRank := 0
	for pi, spec := range cfg.Programs {
		if spec.Procs <= 0 {
			return nil, fmt.Errorf("mpsim: program %q has %d procs", spec.Name, spec.Procs)
		}
		if spec.Body == nil {
			return nil, fmt.Errorf("mpsim: program %q has no body", spec.Name)
		}
		ppn := spec.ProcsPerNode
		if ppn <= 0 {
			ppn = 1
		}
		progRanks := make([]int, spec.Procs)
		for r := 0; r < spec.Procs; r++ {
			nid := nodeID + r/ppn
			for len(w.nodes) <= nid {
				w.nodes = append(w.nodes, &node{id: len(w.nodes)})
			}
			p := &Proc{
				world:     w,
				worldRank: worldRank,
				progIndex: pi,
				progName:  spec.Name,
				node:      w.nodes[nid],
				resume:    make(chan struct{}),
				state:     stateRunnable,
				heapIdx:   -1,
			}
			w.nodes[nid].procsOnOut++
			w.procs = append(w.procs, p)
			progRanks[r] = worldRank
			if w.obs != nil {
				w.obs.SetRankName(worldRank, fmt.Sprintf("%s/%d", spec.Name, r))
			}
			worldRank++
		}
		nodeID = len(w.nodes)
		for _, r := range progRanks {
			w.procs[r].progRanks = progRanks
		}
		if _, dup := w.progRanks[spec.Name]; dup {
			return nil, fmt.Errorf("mpsim: two programs named %q", spec.Name)
		}
		w.progNames = append(w.progNames, spec.Name)
		w.progRanks[spec.Name] = progRanks
	}
	allRanks := make([]int, len(w.procs))
	for i := range allRanks {
		allRanks[i] = i
	}
	for _, p := range w.procs {
		p.worldComm = newComm(p, allRanks, 1)
		p.progComm = newComm(p, p.progRanks, 2+p.progIndex)
	}
	w.stats.PerRank = make([]RankStats, len(w.procs))
	w.tseq = make([]int, len(w.procs))
	// Partition before the crash and join plans register their timers:
	// the partition decides which heap owns them.
	w.sh.partition(w, w.resolveShards(cfg), cfg.lookahead)
	if cfg.Crash != nil {
		w.initCrash(cfg.Crash, cfg.Detect, cfg.Programs)
	}
	if cfg.Join != nil {
		w.initJoin(cfg.Join, cfg.Programs)
	}
	// Launch every process goroutine and queue it on its shard; each
	// immediately parks waiting for the scheduler to resume it.  Dormant
	// ranks (pending joins) are launched by their join timers instead.
	for _, p := range w.procs {
		if w.dormant(p.worldRank) {
			continue
		}
		w.launchProc(p, cfg.Programs[p.progIndex].Body)
		heap.Push(&p.shard.runq, p)
	}
	return w, nil
}

// launchProc starts the goroutine executing body for p; it parks until
// the scheduler first resumes it.  A crashPanic unwinding the body is a
// clean fail-stop death, not a run failure.
func (w *World) launchProc(p *Proc, body func(p *Proc)) {
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if _, crashed := r.(crashPanic); !crashed {
					if s := p.shard; s.failure == nil {
						s.failure = &runFailure{rank: p.worldRank, prog: p.progName, err: r}
					}
				}
			}
			p.finalClock = p.clock
			p.state = stateDone
			p.sched <- schedEvent{p: p}
		}()
		body(p)
	}()
}

func (w *World) panicDeadlock() {
	var desc []string
	for _, p := range w.procs {
		if p.state == stateBlocked {
			if p.wantsAny != nil {
				desc = append(desc, fmt.Sprintf("  %s/rank %d waiting for any of %d posted receives",
					p.progName, p.worldRank, len(p.wantsAny)))
			} else {
				desc = append(desc, fmt.Sprintf("  %s/rank %d waiting for src=%d tag=%d",
					p.progName, p.worldRank, p.wantSrc, p.wantTag))
			}
		}
	}
	sort.Strings(desc)
	msg := "mpsim: deadlock: every live process is blocked in Recv:\n"
	for _, d := range desc {
		msg += d + "\n"
	}
	if w.net != nil && !w.net.reliable {
		var dropped int64
		for i := range w.stats.PerRank {
			dropped += w.stats.PerRank[i].Drops
		}
		if dropped > 0 {
			msg += fmt.Sprintf("  (%d messages were dropped by fault injection with no reliable transport; consider Config.Reliable)\n", dropped)
		}
	}
	panic(msg)
}

// wake moves a blocked process back to its shard's run queue.
func (w *World) wake(p *Proc) {
	p.state = stateRunnable
	heap.Push(&p.shard.runq, p)
}

// removeFromRunq pulls a queued process out of its run queue (crash
// reaping).
func (w *World) removeFromRunq(p *Proc) {
	heap.Remove(&p.shard.runq, p.heapIdx)
}

// noteDone settles a finished (or crash-unwound) process: its shard's
// live count and makespan.
func (w *World) noteDone(p *Proc) {
	s := p.shard
	s.live--
	if p.finalClock > s.makespan {
		s.makespan = p.finalClock
	}
}

// procHeap orders runnable processes by (clock, worldRank).  It keeps
// each element's heapIdx current so the crash machinery can remove a
// specific process (heap.Remove) without draining the queue.
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].clock != h[j].clock {
		return h[i].clock < h[j].clock
	}
	return h[i].worldRank < h[j].worldRank
}
func (h procHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *procHeap) Push(x any) {
	p := x.(*Proc)
	p.heapIdx = len(*h)
	*h = append(*h, p)
}
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	p.heapIdx = -1
	*h = old[:n-1]
	return p
}
