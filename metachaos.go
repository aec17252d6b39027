// Package metachaos is a Go reproduction of Meta-Chaos, the framework
// of Edjlali, Sussman and Saltz ("Interoperability of Data Parallel
// Runtime Libraries", IPPS 1997) that lets specialized data-parallel
// runtime libraries exchange distributed data — inside one program or
// between separate programs — through a virtual linearization of
// library-specific Regions.
//
// The package re-exports the stable public surface of the repository:
//
//   - the simulated message-passing machine (ranks, communicators,
//     collectives, virtual-time cost models) that stands in for
//     MPI/PVM/MPL,
//   - the Meta-Chaos core: Regions, SetOfRegions, schedule computation
//     with the cooperation and duplication methods, and the symmetric
//     data-move executor, and
//   - the four data-parallel libraries bound to the framework:
//     Multiblock Parti (regular multiblock arrays), CHAOS (irregular
//     arrays), the HPF runtime (BLOCK/CYCLIC arrays) and the pC++
//     runtime (distributed element collections).
//
// A minimal exchange between two libraries in one program:
//
//	metachaos.RunSPMD(metachaos.SP2(), 4, func(p *metachaos.Proc) {
//		ctx := metachaos.NewCtx(p, p.Comm())
//		src := metachaos.NewHPFArray(metachaos.BlockVector(100, 4), p.Rank())
//		dst, _ := metachaos.NewChaosArray(ctx, myIndices)
//		sched, _ := metachaos.ComputeSchedule(metachaos.SingleProgram(p.Comm()),
//			&metachaos.Spec{Lib: metachaos.HPF, Obj: src,
//				Set: metachaos.NewSetOfRegions(gidx.FullSection(gidx.Shape{100})), Ctx: ctx},
//			&metachaos.Spec{Lib: metachaos.Chaos, Obj: dst,
//				Set: metachaos.NewSetOfRegions(region), Ctx: ctx},
//			metachaos.Cooperation)
//		sched.Move(src, dst)
//	})
//
// See the examples directory for complete programs and DESIGN.md for
// the system inventory.
package metachaos

import (
	"metachaos/internal/chaoslib"
	"metachaos/internal/core"
	"metachaos/internal/distarray"
	"metachaos/internal/faultsim"
	"metachaos/internal/gidx"
	"metachaos/internal/hpfrt"
	"metachaos/internal/lparx"
	"metachaos/internal/mbparti"
	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
	"metachaos/internal/pcxxrt"
)

// Simulated machine: processes, communicators, cost models.
type (
	// Proc is one simulated process.
	Proc = mpsim.Proc
	// Comm is a communicator over a group of processes.
	Comm = mpsim.Comm
	// Machine is a hardware cost model.
	Machine = mpsim.Machine
	// Stats is the observable outcome of a simulated run.
	Stats = mpsim.Stats
	// RankStats counts one process's traffic.
	RankStats = mpsim.RankStats
	// PairKey identifies an ordered (sender, receiver) pair.
	PairKey = mpsim.PairKey
	// PairStats counts traffic between one ordered pair.
	PairStats = mpsim.PairStats
	// Config describes a multi-program run.
	Config = mpsim.Config
	// ProgramSpec describes one program of a run.
	ProgramSpec = mpsim.ProgramSpec
)

// Fault injection and reliable transport (see internal/faultsim and
// the chaos-harness section of the README).
type (
	// FaultInjector decides the fate of each inter-node transmission.
	FaultInjector = mpsim.FaultInjector
	// FaultDecision is one transmission's injected fate.
	FaultDecision = mpsim.FaultDecision
	// Reliability configures the retransmitting transport.
	Reliability = mpsim.Reliability
	// NetError is a typed transport failure (timeout, unreachable peer).
	NetError = mpsim.NetError
	// FaultProfile is a deterministic seed-driven fault injector.
	FaultProfile = faultsim.Profile
	// FaultRates are per-link fault probabilities.
	FaultRates = faultsim.Rates
)

// Virtual-time observability (see internal/obs, cmd/mctrace -format and
// the observability section of DESIGN.md).  Attach a Tracer through
// Config.Obs; a nil Tracer keeps the whole layer off at the cost of a
// pointer comparison per instrumented point.
type (
	// Tracer records spans, instants and metrics on the virtual clock.
	Tracer = obs.Tracer
	// Span is a handle to one open span on a rank's virtual clock.
	Span = obs.Span
	// PhaseTotal aggregates the spans sharing one name.
	PhaseTotal = obs.PhaseTotal
	// Metrics is the tracer's counter/gauge/histogram registry.
	Metrics = obs.Metrics
	// MovePhases is one move's per-phase virtual-time breakdown,
	// reported always (tracer or not) in MoveResult.Phases.
	MovePhases = core.MovePhases
)

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Typed transport errors.
var (
	// ErrTimeout reports a virtual-time deadline expiry.
	ErrTimeout = mpsim.ErrTimeout
	// ErrPeerUnreachable reports retransmission give-up on a dead link.
	ErrPeerUnreachable = mpsim.ErrPeerUnreachable
	// ErrPeerDead reports an operation bound to a rank the failure
	// detector has declared crashed.
	ErrPeerDead = mpsim.ErrPeerDead
)

// Deterministic fault profiles.
var (
	// MildFaults models an occasionally lossy link (~1% drops).
	MildFaults = faultsim.Mild
	// LossyFaults models a badly congested link (5% drops).
	LossyFaults = faultsim.Lossy
	// RandomFaults derives a reproducible regime from the seed.
	RandomFaults = faultsim.Random
	// CrashyFaults is MildFaults plus one seed-derived fail-stop crash.
	CrashyFaults = faultsim.Crashy
	// FlakyFaults is CrashyFaults with a later seed-derived restart.
	FlakyFaults = faultsim.Flaky
	// FaultProfileByName maps "none"/"mild"/"lossy"/"random"/"crashy"/
	// "flaky"/"growth" to a profile.
	FaultProfileByName = faultsim.ByName
)

// Fail-stop crash faults and recovery (see the failure-model section
// of DESIGN.md).  Wire a plan through Config.Crash — e.g.
// CrashyFaults(seed).CrashPlan() — and the virtual-time heartbeat
// detector, group shrink and checkpoint/restart layers activate; with
// Config.Crash nil the whole model is off.
type (
	// CrashEvent schedules one fail-stop fault (optionally restarting).
	CrashEvent = mpsim.CrashEvent
	// CrashPlan supplies a run's deterministic crash schedule.
	CrashPlan = mpsim.CrashPlan
	// CrashRecord is one crash's observable history in Stats.Crashes.
	CrashRecord = mpsim.CrashRecord
	// Detector configures the virtual-time heartbeat failure detector.
	Detector = mpsim.Detector
	// RecoveryHooks are the application halves of MoveWithRecovery.
	RecoveryHooks = core.RecoveryHooks
	// Recovered reports how a MoveWithRecovery call completed.
	Recovered = core.Recovered
)

var (
	// DefaultDetector is the detector used when a crash plan is set
	// without an explicit Config.Detect.
	DefaultDetector = mpsim.DefaultDetector
	// MoveWithRecovery retries a move over the survivors of a crash:
	// agreement, detector-settled shrink, rewind/rebuild hooks,
	// schedule recompute, retry.
	MoveWithRecovery = core.MoveWithRecovery
)

// Elastic membership and schedules from route maps (see the
// elastic-membership section of DESIGN.md).  Wire a join plan through
// Config.Join — e.g. GrowthFaults(seed).JoinPlan() — and the listed
// ranks start dormant, entering the running world at their scheduled
// virtual times; every process then derives the transfer's route map
// over the new membership (ComputeRoutes or BlockRoutes) and assembles
// its schedule from it with NewScheduleFromRoutes, with no collective.
type (
	// JoinEvent schedules one rank's entry into the running world.
	JoinEvent = mpsim.JoinEvent
	// JoinPlan supplies a run's deterministic join schedule.
	JoinPlan = mpsim.JoinPlan
	// JoinRecord is one join's observable history in Stats.Joins.
	JoinRecord = mpsim.JoinRecord
	// RouteMap is a transfer's position-ordered routing, keyed on world
	// ranks so it stays meaningful across membership changes.
	RouteMap = core.RouteMap
	// RouteRun is one run-compressed span of a RouteMap.
	RouteRun = core.RouteRun
)

var (
	// GrowthFaults is MildFaults plus two seed-derived elastic joins.
	GrowthFaults = faultsim.Growth
	// ComputeRoutes derives a transfer's route map locally from the two
	// sides' descriptors.
	ComputeRoutes = core.ComputeRoutes
	// BlockRoutes builds a block redistribution's route map in
	// O(parts), without dereferencing elements.
	BlockRoutes = core.BlockRoutes
	// NewScheduleFromRoutes assembles a process's schedule from a route
	// map with no communication — how a schedule is rebuilt without the
	// collective inspector.
	NewScheduleFromRoutes = core.NewScheduleFromRoutes
)

// Run executes a configured set of programs on the simulated machine.
func Run(cfg Config) *Stats { return mpsim.Run(cfg) }

// RunSPMD runs a single n-process program.
func RunSPMD(m *Machine, n int, body func(p *Proc)) *Stats {
	return mpsim.RunSPMD(m, n, body)
}

// Machine profiles.
var (
	// SP2 models the paper's 16-node IBM SP2.
	SP2 = mpsim.SP2
	// AlphaFarmATM models the paper's DEC Alpha farm on an ATM switch.
	AlphaFarmATM = mpsim.AlphaFarmATM
	// Ideal is a zero-cost machine for correctness work.
	Ideal = mpsim.Ideal
)

// Meta-Chaos core types.
type (
	// Region describes a group of elements in library-specific terms.
	Region = core.Region
	// SetOfRegions is an ordered group of Regions; its linearization
	// defines the transfer mapping.
	SetOfRegions = core.SetOfRegions
	// Schedule is a computed communication schedule.
	Schedule = core.Schedule
	// Spec names one side of a transfer.
	Spec = core.Spec
	// Ctx is a library execution context.
	Ctx = core.Ctx
	// Coupling pairs the programs of a transfer.
	Coupling = core.Coupling
	// Method selects the schedule computation algorithm.
	Method = core.Method
	// MoveResult reports a move's element count and, under the
	// reliable transport, its per-peer retransmission costs and any
	// peers that failed.
	MoveResult = core.MoveResult
	// PeerNet is one peer's share of a MoveResult.
	PeerNet = core.PeerNet
	// RetryPolicy bounds a fault-tolerant schedule exchange.
	RetryPolicy = core.RetryPolicy
	// LibraryIface is the inquiry interface a data-parallel library
	// implements to join the framework.
	LibraryIface = core.Library
	// DistObject is a handle on a distributed data structure.
	DistObject = core.DistObject
	// ElemType describes one element of a distributed object: Words
	// scalars of kind Kind.
	ElemType = core.ElemType
	// ElemKind enumerates the scalar storage kinds.
	ElemKind = core.ElemKind
	// Mem is a distributed object's typed local element storage.
	Mem = core.Mem
)

// Element kinds and the single-scalar element types.
const (
	KindFloat64 = core.KindFloat64
	KindFloat32 = core.KindFloat32
	KindInt64   = core.KindInt64
	KindInt32   = core.KindInt32
	KindByte    = core.KindByte
)

var (
	// Float64 is the default element type: one float64 per element.
	Float64 = core.Float64
	// Float32 elements ship half the wire bytes of Float64.
	Float32 = core.Float32
	// Int64 is one int64 per element.
	Int64 = core.Int64
	// Int32 is one int32 per element.
	Int32 = core.Int32
	// ByteElem is one byte per element.
	ByteElem = core.Byte
	// Float64Elems is the legacy multi-word element type: words
	// float64 scalars per element.
	Float64Elems = core.Float64Elems
	// MakeMem allocates zeroed storage for elements of a type.
	MakeMem = core.MakeMem
)

// Schedule computation methods.
const (
	Cooperation = core.Cooperation
	Duplication = core.Duplication
)

// Reduction operations for communicator collectives.
const (
	OpSum = mpsim.OpSum
	OpMax = mpsim.OpMax
	OpMin = mpsim.OpMin
)

// Core constructors and operations.
var (
	// NewSetOfRegions gathers regions into an ordered set.
	NewSetOfRegions = core.NewSetOfRegions
	// NewCtx builds a library execution context.
	NewCtx = core.NewCtx
	// SingleProgram couples a program with itself for intra-program
	// transfers.
	SingleProgram = core.SingleProgram
	// NewCoupling couples two programs by world ranks.
	NewCoupling = core.NewCoupling
	// CoupleByName couples two named programs of the world.
	CoupleByName = core.CoupleByName
	// ComputeSchedule builds a communication schedule.
	ComputeSchedule = core.ComputeSchedule
	// ComputeScheduleReliable is ComputeSchedule with bounded retry
	// under a virtual-time deadline.
	ComputeScheduleReliable = core.ComputeScheduleReliable
	// RegisterLibrary adds a library to the registry.
	RegisterLibrary = core.RegisterLibrary
	// LookupLibrary finds a registered library.
	LookupLibrary = core.LookupLibrary
	// NewScheduleCache memoizes schedules under deterministic keys.
	NewScheduleCache = core.NewScheduleCache
	// MergeSchedules fuses schedules over one coupling into one
	// message round.
	MergeSchedules = core.MergeSchedules
)

// ScheduleCache memoizes communication schedules (see core docs).
type ScheduleCache = core.ScheduleCache

// The four bound data-parallel libraries.
var (
	// MBParti distributes regular multiblock arrays with ghost halos.
	MBParti = mbparti.Library
	// Chaos distributes irregular arrays through translation tables.
	Chaos = chaoslib.Library
	// HPF is the High Performance Fortran runtime analogue.
	HPF = hpfrt.Library
	// PCXX is the pC++/Tulip distributed-collection analogue.
	PCXX = pcxxrt.Library
	// LPARX is the LPARX/AMR irregular-block analogue (a fifth
	// library, beyond the paper's four, exercising extensibility).
	LPARX = lparx.Library
)

// Library object types and constructors.
type (
	// MBPartiArray is a Multiblock Parti distributed array.
	MBPartiArray = mbparti.Array
	// ChaosArray is a CHAOS irregularly distributed array.
	ChaosArray = chaoslib.Array
	// HPFArray is an HPF distributed array.
	HPFArray = hpfrt.Array
	// PCXXCollection is a pC++ distributed collection.
	PCXXCollection = pcxxrt.Collection
	// Dist is a regular distribution descriptor.
	Dist = distarray.Dist
	// Section is a regular array section (lo:hi:step per dimension),
	// the Region type of MBParti and HPF.
	Section = gidx.Section
	// IndexRegion is CHAOS's Region type: a list of global indices.
	IndexRegion = chaoslib.IndexRegion
	// RangeRegion is pC++'s Region type: a strided index range.
	RangeRegion = pcxxrt.RangeRegion
	// BoxRegion is LPARX's Region type: a rectangular box.
	BoxRegion = lparx.BoxRegion
	// LPARXGrid is a patch-decomposed LPARX grid.
	LPARXGrid = lparx.Grid
	// LPARXPatch is one rectangular patch of a decomposition.
	LPARXPatch = lparx.Patch
	// Shape is a dense global array shape.
	Shape = gidx.Shape
)

var (
	// NewMBPartiArray allocates a Multiblock Parti array tile.
	NewMBPartiArray = mbparti.NewArray
	// NewMBPartiArrayTyped is NewMBPartiArray for any element type.
	NewMBPartiArrayTyped = mbparti.NewArrayTyped
	// NewChaosArray builds an irregular array and its translation
	// table (collective).
	NewChaosArray = chaoslib.NewArray
	// NewChaosArrayTyped is NewChaosArray for any element type.
	NewChaosArrayTyped = chaoslib.NewArrayTyped
	// NewAlignedChaosArray builds an array sharing another's
	// distribution.
	NewAlignedChaosArray = chaoslib.NewAligned
	// NewHPFArray allocates an HPF array tile.
	NewHPFArray = hpfrt.NewArray
	// NewHPFArrayTyped is NewHPFArray for any element type.
	NewHPFArrayTyped = hpfrt.NewArrayTyped
	// NewPCXXCollection allocates a collection share.
	NewPCXXCollection = pcxxrt.NewCollection
	// NewPCXXCollectionTyped is NewPCXXCollection for any element
	// type.
	NewPCXXCollectionTyped = pcxxrt.NewCollectionTyped
	// Block2D builds a 2-D (BLOCK, BLOCK) distribution.
	Block2D = distarray.MustBlock2D
	// BlockVector builds a 1-D BLOCK distribution.
	BlockVector = hpfrt.BlockVector
	// RowBlockMatrix builds the row-block matrix distribution used by
	// the HPF matvec server.
	RowBlockMatrix = hpfrt.RowBlockMatrix
	// NewSection builds a unit-stride section.
	NewSection = gidx.NewSection
	// FullSection covers a whole shape.
	FullSection = gidx.FullSection

	// Redistribute moves an HPF array between distributions.
	Redistribute = hpfrt.Redistribute
	// HPFAssign is HPF's array-section assignment.
	HPFAssign = hpfrt.Assign
	// MatVec is the HPF distributed matrix-vector multiply.
	MatVec = hpfrt.MatVec
	// ChaosRemap moves an irregular array onto a new distribution.
	ChaosRemap = chaoslib.Remap
	// RCB is recursive coordinate bisection partitioning.
	RCB = chaoslib.RCB
	// NewMultiblock builds a multiblock domain of Parti arrays.
	NewMultiblock = mbparti.NewMultiblock
	// NewLPARXDecomposition builds an irregular patch decomposition.
	NewLPARXDecomposition = lparx.NewDecomposition
	// NewLPARXGrid allocates a process's patches of a decomposition.
	NewLPARXGrid = lparx.NewGrid
	// NewLPARXGridTyped is NewLPARXGrid for any element type.
	NewLPARXGridTyped = lparx.NewGridTyped
)

// Multiblock manages coupled Parti blocks and their interfaces.
type Multiblock = mbparti.Multiblock
