package serve

import (
	"fmt"
	"reflect"
	"testing"

	"metachaos/internal/core"
	"metachaos/internal/mpsim"
)

// routeLayouts are the serve layouts both of whose libraries support
// descriptor-only route computation (routeSpec); every 2-D shape has
// the 1-D length's element count, so any two of them pair up.
func routeLayouts(procs int) []DistSpec {
	const rows, cols = 14, 9
	return []DistSpec{
		{Library: "hpfrt", Layout: "blockvec", Shape: []int{rows * cols}, Procs: procs},
		{Library: "hpfrt", Layout: "rowblock", Shape: []int{rows, cols}, Procs: procs},
		{Library: "mbparti", Layout: "blockvec", Shape: []int{rows * cols}, Procs: procs},
		{Library: "mbparti", Layout: "block2d", Shape: []int{rows, cols}, Procs: procs},
	}
}

// lanesDiffer describes the first difference between two lane lists,
// compared peer by peer in lane order with offsets expanded, or
// returns "" when they are equal.
func lanesDiffer(got, want []core.PeerList) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d lanes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Peer != want[i].Peer {
			return fmt.Sprintf("lane %d goes to peer %d, want %d", i, got[i].Peer, want[i].Peer)
		}
		if g, w := got[i].ExpandOffsets(), want[i].ExpandOffsets(); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("lane %d (peer %d) offsets %v, want %v", i, got[i].Peer, g, w)
		}
	}
	return ""
}

// localPairs lists a schedule's same-process (src, dst) pairs in order.
func localPairs(s *core.Schedule) [][2]int32 {
	var out [][2]int32
	s.EachLocal(func(src, dst int32) { out = append(out, [2]int32{src, dst}) })
	return out
}

// TestRouteScheduleMatchesInspector pins the equivalence execOpen
// relies on when it assembles a route-capable pair's schedule from
// its route map instead of running the collective inspector: for every
// route-capable layout pair, process shape and schedule method, each
// rank's send and receive lanes and local pairs come out identical —
// in lane order, not merely as sets, because lane order sets the
// order of messages and so moves virtual time.
func TestRouteScheduleMatchesInspector(t *testing.T) {
	shapes := [][2]int{{3, 2}, {4, 4}, {2, 3}, {1, 1}, {5, 3}}
	for _, shape := range shapes {
		for _, src := range routeLayouts(shape[0]) {
			for _, dst := range routeLayouts(shape[1]) {
				for _, method := range []core.Method{core.Cooperation, core.Duplication} {
					name := fmt.Sprintf("%dx%d/%s>%s/%v", shape[0], shape[1], src.Key(), dst.Key(), method)
					errs := make([]string, shape[0]+shape[1])
					body := func(p *mpsim.Proc) {
						coupling, err := core.CoupleByName(p, "src", "dst")
						if err != nil {
							panic(err)
						}
						ctx := core.NewCtx(p, p.Comm())
						spec := &src
						if p.Program() == "dst" {
							spec = &dst
						}
						sd, err := buildSide(spec, p.Rank())
						if err != nil {
							panic(err)
						}
						cs := &core.Spec{Lib: sd.lib, Obj: sd.obj, Set: sd.set, Ctx: ctx}
						var want *core.Schedule
						if p.Program() == "src" {
							want, err = core.ComputeSchedule(coupling, cs, nil, method)
						} else {
							want, err = core.ComputeSchedule(coupling, nil, cs, method)
						}
						if err != nil {
							panic(err)
						}
						rm, err := core.ComputeRoutes(coupling, routeSpec(ctx, &src), routeSpec(ctx, &dst))
						if err != nil {
							panic(err)
						}
						got, err := core.NewScheduleFromRoutes(coupling, rm, src.elem(), p.WorldRank())
						if err != nil {
							panic(err)
						}
						me := p.WorldRank()
						switch {
						case got.Elems() != want.Elems():
							errs[me] = fmt.Sprintf("moves %d elements, want %d", got.Elems(), want.Elems())
						case lanesDiffer(got.Sends, want.Sends) != "":
							errs[me] = "sends: " + lanesDiffer(got.Sends, want.Sends)
						case lanesDiffer(got.Recvs, want.Recvs) != "":
							errs[me] = "recvs: " + lanesDiffer(got.Recvs, want.Recvs)
						case !reflect.DeepEqual(localPairs(got), localPairs(want)):
							errs[me] = fmt.Sprintf("local pairs %v, want %v", localPairs(got), localPairs(want))
						}
					}
					mpsim.Run(mpsim.Config{
						Machine: mpsim.SP2(),
						Programs: []mpsim.ProgramSpec{
							{Name: "src", Procs: shape[0], ProcsPerNode: 1, Body: body},
							{Name: "dst", Procs: shape[1], ProcsPerNode: 1, Body: body},
						},
					})
					for rank, e := range errs {
						if e != "" {
							t.Errorf("%s: world rank %d: %s", name, rank, e)
						}
					}
				}
			}
		}
	}
}
