package mpsim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Frozen engine output.  The files under testdata/golden_*.txt were
// recorded by the serial scheduler loop before it was deleted in favor
// of running every world as one or more shards; they keep that engine's
// results as a reference the current code is held to.  There is no
// update flag on purpose: a golden that can be regenerated from the
// code under test stops being a reference.
//
// Each file holds the run's makespan and message count, then every
// trace event in the order a one-shard run records it (execution
// order).  A one-shard run must reproduce that list exactly; an
// N-shard run records the same events ordered by (time, rank), and both
// must render the same Timeline.

// goldenInjector is a stateless fault injector: every decision is a
// hash of its arguments, so the decisions do not depend on the order
// in which concurrently running shards consult it.
type goldenInjector struct{}

func (goldenInjector) Decide(from, to, attempt, bytes int, now float64) FaultDecision {
	roll := func(salt uint64) float64 {
		z := uint64(from)*0x9e3779b97f4a7c15 ^ uint64(to)*0xbf58476d1ce4e5b9 ^
			uint64(attempt+2)*0x94d049bb133111eb ^ math.Float64bits(now) ^ salt*0x2545f4914f6cdd1d
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	d := FaultDecision{CorruptBit: -1}
	if roll(1) < 0.08 {
		d.Drop = true
		return d
	}
	if attempt >= 0 {
		d.Duplicate = roll(2) < 0.04
		if bytes > 0 && roll(3) < 0.02 {
			d.CorruptBit = int(roll(6) * float64(bytes*8))
		}
	}
	if roll(4) < 0.25 {
		d.ExtraDelay = 3e-3 * roll(5)
	}
	return d
}

// worldRing is ringBody over the world communicator.
func worldRing(p *Proc, ranks, rounds, bytes int) {
	buf := make([]byte, bytes)
	for i := range buf {
		buf[i] = byte(p.WorldRank() + i)
	}
	me := p.WorldRank()
	for r := 0; r < rounds; r++ {
		p.World().Send((me+1)%ranks, r, buf)
		got, _ := p.World().Recv((me+ranks-1)%ranks, r)
		p.ChargeMemOps(len(got))
		buf[0] ^= got[0]
	}
}

// goldenConfigs are the frozen workloads: a cross-node ring, the ring
// under faults with the reliable transport, a crash with a restart,
// and elastic joins.
var goldenConfigs = map[string]func(shards int) Config{
	"ring": ringConfig,
	"reliable": func(shards int) Config {
		return Config{
			Machine:  SP2(),
			Fault:    goldenInjector{},
			Reliable: &Reliability{},
			Trace:    true,
			Shards:   shards,
			Programs: []ProgramSpec{{Name: "ring", Procs: 8, Body: func(p *Proc) {
				worldRing(p, 8, 10, 256)
			}}},
		}
	},
	"crash": func(shards int) Config {
		return Config{
			Machine: SP2(),
			Crash:   testPlan{{Rank: 3, At: 0.004, RestartAt: 0.02}},
			Trace:   true,
			Shards:  shards,
			Programs: []ProgramSpec{{Name: "spmd", Procs: 4, Body: func(p *Proc) {
				if p.WorldRank() == 3 {
					if p.Incarnation() == 0 {
						idleUntilKilled(p)
					}
					p.World().Send(0, 99, []byte("back"))
					return
				}
				worldRing(p, 3, 10, 128)
				if p.WorldRank() != 0 {
					return
				}
				for {
					_, _, err := p.World().RecvTimeout(3, 99, 0)
					if err == nil {
						return
					}
					p.Sleep(5e-3)
				}
			}}},
		}
	},
	"join": func(shards int) Config {
		return Config{
			Machine: AlphaFarmATM(),
			Join:    testJoinPlan{{Rank: 6, At: 0.003}, {Rank: 7, At: 0.006}},
			Trace:   true,
			Shards:  shards,
			Programs: []ProgramSpec{{Name: "spmd", Procs: 8, Body: func(p *Proc) {
				p.SleepUntil(0.01)
				worldRing(p, 8, 5, 64)
			}}},
		}
	},
}

// formatGolden renders a run in the golden file format.
func formatGolden(st *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %s\nmsgs %d\n", strconv.FormatFloat(st.MakespanSeconds, 'g', -1, 64), st.TotalMsgs())
	for _, e := range st.Trace.Events {
		fmt.Fprintf(&b, "%s %d %s %d %d\n", strconv.FormatFloat(e.Time, 'g', -1, 64), e.Rank, e.Kind, e.Peer, e.Bytes)
	}
	return b.String()
}

// parseGoldenEvents reads the event lines of a golden file back into
// a trace.
func parseGoldenEvents(t *testing.T, lines []string) *Trace {
	t.Helper()
	kinds := map[string]EventKind{}
	for k := EvSend; k <= EvJoin; k++ {
		kinds[k.String()] = k
	}
	tr := &Trace{}
	for _, ln := range lines {
		var ts, kind string
		var e Event
		if _, err := fmt.Sscanf(ln, "%s %d %s %d %d", &ts, &e.Rank, &kind, &e.Peer, &e.Bytes); err != nil {
			t.Fatalf("golden line %q: %v", ln, err)
		}
		var err error
		if e.Time, err = strconv.ParseFloat(ts, 64); err != nil {
			t.Fatalf("golden line %q: %v", ln, err)
		}
		k, ok := kinds[kind]
		if !ok {
			t.Fatalf("golden line %q: unknown event kind", ln)
		}
		e.Kind = k
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func TestFrozenEngineGoldens(t *testing.T) {
	for name, mk := range goldenConfigs {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			want := string(raw)
			lines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
			wantTrace := parseGoldenEvents(t, lines[2:])
			var oneShard *Stats
			for _, shards := range []int{1, 4} {
				st := Run(mk(shards))
				if shards == 1 {
					oneShard = st
				} else {
					// Every per-rank and per-pair counter, fault counters
					// included, must survive the merge of shard records.
					if !reflect.DeepEqual(st.PerRank, oneShard.PerRank) {
						t.Errorf("shards=%d: per-rank stats differ from one shard's:\n%+v\nwant:\n%+v", shards, st.PerRank, oneShard.PerRank)
					}
					if !reflect.DeepEqual(st.Pairs, oneShard.Pairs) {
						t.Errorf("shards=%d: pair stats differ from one shard's", shards)
					}
				}
				got := formatGolden(st)
				if g := strings.SplitN(got, "\n", 3); g[0] != lines[0] || g[1] != lines[1] {
					t.Errorf("shards=%d: got %q / %q, want %q / %q", shards, g[0], g[1], lines[0], lines[1])
				}
				if shards == 1 && got != want {
					t.Errorf("shards=1: events differ from the frozen execution order")
				}
				if g, w := st.Trace.Timeline(), wantTrace.Timeline(); g != w {
					t.Errorf("shards=%d: timeline differs from the frozen one", shards)
				}
				if shards > 1 && !sort.SliceIsSorted(st.Trace.Events, func(a, b int) bool {
					ea, eb := st.Trace.Events[a], st.Trace.Events[b]
					return ea.Time < eb.Time || (ea.Time == eb.Time && ea.Rank < eb.Rank)
				}) {
					t.Errorf("shards=%d: events not in (time, rank) order", shards)
				}
			}
		})
	}
}
