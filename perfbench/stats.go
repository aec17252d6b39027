package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outcome is what one workload phase measured.
type outcome struct {
	attempted, failed int64
	// lat holds each completed op's latency in milliseconds.
	lat []float64
	// busy is the time the ops were measured over, in seconds: the sum
	// of op windows where checks run between ops, else the wall time
	// of the timed phase.
	busy float64
	// setups holds each set-up's duration in seconds.
	setups []float64
	// mallocs counts heap allocations inside the measured ops.
	mallocs uint64
	// rssMB is the peak resident set of the measured process.
	rssMB float64
	// layer holds the per-layer figures this phase measured.
	layer map[string]float64
	// msgSizes samples the workload's message sizes in bytes, for the
	// codec and bufpool probes.
	msgSizes []int
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// endToEndMetrics folds an outcome into the end-to-end metric values.
func (o *outcome) endToEndMetrics() map[string]float64 {
	m := map[string]float64{
		"setup_s":     median(o.setups),
		"op_p50_ms":   quantile(o.lat, 0.50),
		"peak_rss_mb": o.rssMB,
	}
	if o.busy > 0 {
		m["ops_per_s"] = float64(len(o.lat)) / o.busy
	}
	return m
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs, the mean of the two middle values
// for an even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mallocs returns the process's cumulative heap allocation count.
// ReadMemStats stops the world, so the count is exact; callers read it
// only where no other goroutine of interest is running.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuSeconds returns this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPUSeconds reads another process's user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks).
func procCPUSeconds(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	// The command name may hold spaces; fields restart after its ')'.
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB reads VmHWM from /proc/<pid>/status ("self" for this
// process), in MB.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, _ := strconv.ParseFloat(fields[1], 64)
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// gcMeter reads the Go runtime's GC CPU share between two points.
type gcMeter struct {
	samples   []metrics.Sample
	gc, total float64
}

func startGCMeter() *gcMeter {
	g := &gcMeter{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
	g.gc, g.total = g.read()
	return g
}

func (g *gcMeter) read() (gc, total float64) {
	metrics.Read(g.samples)
	for i, s := range g.samples {
		if s.Value.Kind() != metrics.KindFloat64 {
			continue
		}
		if i == 0 {
			gc = s.Value.Float64()
		} else {
			total = s.Value.Float64()
		}
	}
	return gc, total
}

// share returns the GC's share of all CPU time since the meter started.
func (g *gcMeter) share() float64 {
	// The runtime updates its CPU classes at GC boundaries, so the share
	// covers the GC cycles that ended inside the window.
	gc, total := g.read()
	if total-g.total <= 0 {
		return 0
	}
	return (gc - g.gc) / (total - g.total)
}

// cpuMeter reads process CPU over wall time between two points.
type cpuMeter struct {
	cpu   float64
	start time.Time
}

func startCPUMeter() cpuMeter { return cpuMeter{cpu: cpuSeconds(), start: time.Now()} }

func (c cpuMeter) util() float64 {
	wall := time.Since(c.start).Seconds()
	if wall <= 0 {
		return 0
	}
	return (cpuSeconds() - c.cpu) / wall
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
