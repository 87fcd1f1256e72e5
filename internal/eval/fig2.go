package eval

import (
	"fmt"
	"math"
	"math/rand"

	"iqn/internal/synopsis"
)

// This file regenerates Figure 2 (Section 3.3): the stand-alone accuracy
// comparison of the three synopsis families at a fixed space budget.
//
// Every point averages, over cfg.Runs random set pairs, the relative
// error |est − true| / true of the resemblance estimate between two
// collections with a controlled overlap. The paper's setting restricts
// all synopses to 2048 bits: 64 min-wise permutations, 32 hash-sketch
// bitmaps, or a 2048-bit Bloom filter — the exact series of the figure.

// Fig2Config parameterizes both panels.
type Fig2Config struct {
	// Bits is the common space budget (default 2048, the paper's).
	Bits int
	// Runs is the number of random set pairs per point (default 50, the
	// paper's; tests use fewer).
	Runs int
	// Seed drives the set generation.
	Seed int64
	// Sizes are the per-collection sizes of the left panel (default
	// 1000..60000 as in the figure).
	Sizes []int
	// Overlaps are the mutual-overlap fractions of the right panel
	// (default 1/2 … 1/9, the figure's 50%…11%).
	Overlaps []float64
	// FixedSize is the per-collection size of the right panel. The
	// paper's text says 10,000 while the chart label says 5,000; the
	// default follows the text (10,000).
	FixedSize int
	// IncludeSuperLogLog adds a fourth series for the Durand-Flajolet
	// super-LogLog sketch at the same bit budget (the paper cites it as
	// the refined hash sketch but does not plot it).
	IncludeSuperLogLog bool
}

func (c *Fig2Config) fillDefaults() {
	if c.Bits <= 0 {
		c.Bits = 2048
	}
	if c.Runs <= 0 {
		c.Runs = 50
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 5000, 10000, 20000, 40000, 60000}
	}
	if len(c.Overlaps) == 0 {
		c.Overlaps = []float64{1.0 / 2, 1.0 / 3, 1.0 / 4, 1.0 / 5, 1.0 / 6, 1.0 / 7, 1.0 / 8, 1.0 / 9}
	}
	if c.FixedSize <= 0 {
		c.FixedSize = 10000
	}
}

// variant is one Figure 2 series: the synopsis configurations of the
// two collections being compared (equal except in the heterogeneous-
// lengths ablation).
type variant struct {
	name        string
	left, right synopsis.Config
}

// fig2Variants are the figure's series: the three synopsis families at
// the shared bit budget, plus the super-LogLog refinement on request.
func fig2Variants(cfg Fig2Config) []variant {
	family := func(name string, kind synopsis.Kind) variant {
		c := synopsis.Config{Kind: kind, Bits: cfg.Bits, Seed: 42}
		return variant{name, c, c}
	}
	vs := []variant{
		family(fmt.Sprintf("MIPs %d", cfg.Bits/32), synopsis.KindMIPs),
		family(fmt.Sprintf("HSs %d", cfg.Bits/64), synopsis.KindHashSketch),
		family(fmt.Sprintf("BF %d", cfg.Bits), synopsis.KindBloom),
	}
	if cfg.IncludeSuperLogLog {
		vs = append(vs, family(fmt.Sprintf("SLL %d", cfg.Bits/5), synopsis.KindSuperLogLog))
	}
	return vs
}

// overlappingPair draws two n-element sets sharing exactly
// round(overlap·n) elements.
func overlappingPair(rng *rand.Rand, n int, overlap float64) (a, b []uint64, trueResemblance float64) {
	shared := int(math.Round(overlap * float64(n)))
	if shared > n {
		shared = n
	}
	total := 2*n - shared
	ids := make([]uint64, 0, total)
	seen := make(map[uint64]struct{}, total)
	for len(ids) < total {
		id := rng.Uint64()
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	a = ids[:n]
	b = make([]uint64, 0, n)
	b = append(b, ids[:shared]...) // the shared part
	b = append(b, ids[n:total]...) // b's private part
	trueR := float64(shared) / float64(total)
	return a, b, trueR
}

// pairSpec is one X position of a Figure 2 sweep: the set pairs drawn
// there and the seed offset that makes the point independent of the
// rest of the sweep.
type pairSpec struct {
	x       float64
	seed    int64
	size    int
	overlap float64
}

// sweep averages, per point and variant, the relative error
// |est − true| / true of the resemblance estimate over cfg.Runs random
// set pairs.
func sweep(cfg Fig2Config, variants []variant, points []pairSpec) []Series {
	series := make([]Series, len(variants))
	for i, v := range variants {
		series[i].Name = v.name
	}
	for _, pt := range points {
		sums := make([]float64, len(variants))
		rng := rand.New(rand.NewSource(cfg.Seed + pt.seed))
		for run := 0; run < cfg.Runs; run++ {
			a, b, trueR := overlappingPair(rng, pt.size, pt.overlap)
			for i, v := range variants {
				est, err := v.left.FromIDs(a).Resemblance(v.right.FromIDs(b))
				if err != nil {
					// Same-family synopses are always comparable; an error
					// here is a programming bug worth surfacing loudly.
					panic(err)
				}
				if trueR == 0 {
					sums[i] += est // error relative to nothing: the raw estimate
				} else {
					sums[i] += math.Abs(est-trueR) / trueR
				}
			}
		}
		for i := range variants {
			series[i].Points = append(series[i].Points, Point{X: pt.x, Y: sums[i] / float64(cfg.Runs)})
		}
	}
	return series
}

// bySize sweeps the per-collection size at an expected mutual overlap
// of 33%.
func bySize(cfg Fig2Config, variants []variant) []Series {
	points := make([]pairSpec, len(cfg.Sizes))
	for i, n := range cfg.Sizes {
		points[i] = pairSpec{x: float64(n), seed: int64(n), size: n, overlap: 1.0 / 3}
	}
	return sweep(cfg, variants, points)
}

// Fig2Left regenerates the left panel: relative error of resemblance
// estimation as a function of the per-collection size, at an expected
// mutual overlap of 33%.
func Fig2Left(cfg Fig2Config) []Series {
	cfg.fillDefaults()
	return bySize(cfg, fig2Variants(cfg))
}

// Fig2Right regenerates the right panel: relative error as a function of
// the mutual overlap fraction, at a fixed collection size.
func Fig2Right(cfg Fig2Config) []Series {
	cfg.fillDefaults()
	points := make([]pairSpec, len(cfg.Overlaps))
	for i, o := range cfg.Overlaps {
		points[i] = pairSpec{x: o, seed: int64(o * 1e6), size: cfg.FixedSize, overlap: o}
	}
	return sweep(cfg, fig2Variants(cfg), points)
}

// Fig2Hetero is the heterogeneous-lengths ablation (abl-hetero in
// DESIGN.md): the MIPs estimation error when one side publishes a longer
// vector than the other — the min(N1,N2) truncation of Section 3.4 —
// compared against uniform short and uniform long vectors.
func Fig2Hetero(cfg Fig2Config) []Series {
	cfg.fillDefaults()
	mips := func(bits int) synopsis.Config {
		return synopsis.Config{Kind: synopsis.KindMIPs, Bits: bits, Seed: 42}
	}
	return bySize(cfg, []variant{
		{"MIPs 32/32", mips(1024), mips(1024)},
		{"MIPs 128/32", mips(4096), mips(1024)},
		{"MIPs 128/128", mips(4096), mips(4096)},
	})
}
