package main

import (
	"math/rand"
	"sort"
	"time"

	"metachaos/internal/bufpool"
	"metachaos/internal/codec"
)

// codecProbe times the data plane's pack kernel and segment pool at the
// workload's own message sizes: codec.AppendFloat64s against a plain
// copy of the same bytes (the bandwidth baseline), and one
// bufpool GetSegment/Release pair.  Bytes are computed from the sizes,
// not counted by the kernels.
func codecProbe(values map[string]float64, sizes []int) {
	sizes = probeSizes(sizes)
	const budget = 150 * time.Millisecond
	maxN := sizes[len(sizes)-1]
	vs := make([]float64, maxN/8+1)
	for i := range vs {
		vs[i] = float64(i)
	}
	src := codec.AppendFloat64s(nil, vs)
	dst := make([]byte, 0, len(src))

	var packBytes, copyBytes int64
	var packT, copyT time.Duration
	for packT < budget {
		t0 := time.Now()
		for _, n := range sizes {
			dst = codec.AppendFloat64s(dst[:0], vs[:n/8])
			packBytes += int64(n / 8 * 8)
		}
		packT += time.Since(t0)
	}
	out := dst[:cap(dst)]
	for copyT < budget {
		t0 := time.Now()
		for _, n := range sizes {
			copyBytes += int64(copy(out[:n/8*8], src[:n/8*8]))
		}
		copyT += time.Since(t0)
	}
	values["codec.pack_gbps"] = float64(packBytes) / packT.Seconds() / 1e9
	values["codec.copy_gbps"] = float64(copyBytes) / copyT.Seconds() / 1e9

	pool := bufpool.New()
	var pairs int64
	var poolT time.Duration
	for poolT < budget {
		t0 := time.Now()
		for _, n := range sizes {
			pool.GetSegment(n).Release()
			pairs++
		}
		poolT += time.Since(t0)
	}
	values["bufpool.get_release_ns"] = float64(poolT.Nanoseconds()) / float64(pairs)
}

// probeSizes keeps up to 64 of the sampled message sizes (at least 8
// bytes each), sorted, so every probe pass is the same mix.
func probeSizes(sizes []int) []int {
	var out []int
	for _, n := range sizes {
		if n >= 8 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{4096}
	}
	if len(out) > 64 {
		rng := rand.New(rand.NewSource(1))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		out = out[:64]
	}
	sort.Ints(out)
	return out
}
