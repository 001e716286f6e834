package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// FigureConfig parameterizes a figure sweep. The zero value plus
// fillDefaults reproduces the paper's parameter grid at a 1000× shorter
// think time (ARCHITECTURE.md D10).
type FigureConfig struct {
	LeafCounts []int         // x-axis: total leaf transactions N (paper: 1..64)
	MaxDepth   int           // deepest series D (paper: 6)
	Objects    int           // writes per leaf (paper: 2000)
	ThinkMax   time.Duration // paper: 2s; default 20ms (see below)
	Workers    int           // paper: 32
	Repeats    int           // paper: 10; default 3
	Seed       int64
}

func (c *FigureConfig) fillDefaults() {
	if len(c.LeafCounts) == 0 {
		c.LeafCounts = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 6
	}
	if c.Objects <= 0 {
		c.Objects = 2000
	}
	if c.ThinkMax == 0 {
		// What shapes Figure 6 is the think:work ratio, not the absolute
		// think time: the paper's leaves sleep up to 2s and then do ~1ms
		// of writes (ratio ~1000:1), so speedup comes from overlapping
		// sleeps. 20ms preserves think ≫ work on small hosts (a 2000-write
		// burst costs ~0.5ms) while keeping a full sweep under a minute;
		// -paperscale in cmd/pnstm-bench restores the published 2s.
		c.ThinkMax = 20 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Cell is one (N, D) measurement.
type Cell struct {
	Leaves  int
	Depth   int
	Valid   bool          // false when 2^D > N (the paper omits these points)
	Value   float64       // speedup (Fig. 6) or normalized tx time (Fig. 7)
	Wall    time.Duration // mean parallel wall time
	TxTime  time.Duration // mean per-tx handling time
	Serial  time.Duration // mean serial wall time (Fig. 6 only)
	Aborted uint64        // aborts across repeats (diagnostics)
}

// Figure holds one reproduced figure as a (N × D) grid.
type Figure struct {
	Name   string
	Config FigureConfig
	Grid   [][]Cell // [leafIdx][depth]
}

// depthsFor lists the valid depths for a leaf count.
func depthsFor(n, maxDepth int) int {
	d := 0
	for d < maxDepth && 1<<uint(d+1) <= n {
		d++
	}
	return d // deepest valid depth
}

// measure runs the synthetic workload Repeats times and averages.
func measure(cfg SyntheticConfig, repeats int) (wall, tx time.Duration, aborted uint64, err error) {
	var wallSum, txSum time.Duration
	for r := 0; r < repeats; r++ {
		cfg.Seed = cfg.Seed*31 + int64(r) + 1
		res, e := RunSynthetic(cfg)
		if e != nil {
			return 0, 0, 0, e
		}
		wallSum += res.Wall
		txSum += res.MeanTxTime()
		aborted += res.Stats.Aborted
	}
	return wallSum / time.Duration(repeats), txSum / time.Duration(repeats), aborted, nil
}

// Fig6 reproduces Figure 6: speedup of parallel over serial nesting for
// every (N, D) point of the paper's grid.
func Fig6(cfg FigureConfig) (*Figure, error) {
	cfg.fillDefaults()
	fig := &Figure{Name: "Figure 6: speedup of parallel vs. serial nesting", Config: cfg}
	for _, n := range cfg.LeafCounts {
		serialWall, _, _, err := measure(SyntheticConfig{
			Leaves: n, Depth: 0, Objects: cfg.Objects,
			ThinkMax: cfg.ThinkMax, Workers: 1, Serial: true, Seed: cfg.Seed,
		}, cfg.Repeats)
		if err != nil {
			return nil, err
		}
		row := make([]Cell, cfg.MaxDepth+1)
		maxD := depthsFor(n, cfg.MaxDepth)
		for d := 0; d <= cfg.MaxDepth; d++ {
			cell := Cell{Leaves: n, Depth: d}
			if d <= maxD {
				wall, tx, ab, err := measure(SyntheticConfig{
					Leaves: n, Depth: d, Objects: cfg.Objects,
					ThinkMax: cfg.ThinkMax, Workers: cfg.Workers, Seed: cfg.Seed,
				}, cfg.Repeats)
				if err != nil {
					return nil, err
				}
				cell.Valid = true
				cell.Wall = wall
				cell.TxTime = tx
				cell.Serial = serialWall
				cell.Aborted = ab
				cell.Value = float64(serialWall) / float64(wall)
			}
			row[d] = cell
		}
		fig.Grid = append(fig.Grid, row)
	}
	return fig, nil
}

// Fig7 reproduces Figure 7: the mean time to begin + access + commit a
// successful leaf transaction, normalized to the D=0 value of the same N.
// The paper's claim is that the series are flat in D.
func Fig7(cfg FigureConfig) (*Figure, error) {
	cfg.fillDefaults()
	// The paper's Figure 7 starts at N=2.
	counts := make([]int, 0, len(cfg.LeafCounts))
	for _, n := range cfg.LeafCounts {
		if n >= 2 {
			counts = append(counts, n)
		}
	}
	cfg.LeafCounts = counts
	fig := &Figure{Name: "Figure 7: per-transaction handling time vs. depth (normalized to D=0)", Config: cfg}
	for _, n := range cfg.LeafCounts {
		row := make([]Cell, cfg.MaxDepth+1)
		maxD := depthsFor(n, cfg.MaxDepth)
		var base time.Duration
		for d := 0; d <= cfg.MaxDepth; d++ {
			cell := Cell{Leaves: n, Depth: d}
			if d <= maxD {
				wall, tx, ab, err := measure(SyntheticConfig{
					Leaves: n, Depth: d, Objects: cfg.Objects,
					ThinkMax: cfg.ThinkMax, Workers: cfg.Workers, Seed: cfg.Seed,
				}, cfg.Repeats)
				if err != nil {
					return nil, err
				}
				if d == 0 {
					base = tx
				}
				cell.Valid = true
				cell.Wall = wall
				cell.TxTime = tx
				cell.Aborted = ab
				if base > 0 {
					cell.Value = float64(tx) / float64(base)
				}
			}
			row[d] = cell
		}
		fig.Grid = append(fig.Grid, row)
	}
	return fig, nil
}

// Render writes the figure as an aligned text table: one row per leaf
// count, one column per depth, mirroring the paper's plots.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", f.Name)
	fmt.Fprintf(w, "(K=%d objects/leaf, think<=%v, P=%d workers, %d repeats)\n",
		f.Config.Objects, f.Config.ThinkMax, f.Config.Workers, f.Config.Repeats)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s", "N\\D")
	for d := 0; d <= f.Config.MaxDepth; d++ {
		fmt.Fprintf(&sb, "%8d", d)
	}
	fmt.Fprintln(w, sb.String())
	for _, row := range f.Grid {
		sb.Reset()
		fmt.Fprintf(&sb, "%6d", row[0].Leaves)
		for _, c := range row {
			if !c.Valid {
				fmt.Fprintf(&sb, "%8s", "-")
				continue
			}
			fmt.Fprintf(&sb, "%8.2f", c.Value)
		}
		fmt.Fprintln(w, sb.String())
	}
}

// RenderDetail writes the raw wall/tx times behind the figure.
func (f *Figure) RenderDetail(w io.Writer) {
	fmt.Fprintf(w, "%s — detail\n", f.Name)
	fmt.Fprintf(w, "%6s %6s %12s %12s %12s %8s\n", "N", "D", "wall", "tx-time", "serial", "aborts")
	for _, row := range f.Grid {
		for _, c := range row {
			if !c.Valid {
				continue
			}
			fmt.Fprintf(w, "%6d %6d %12v %12v %12v %8d\n",
				c.Leaves, c.Depth, c.Wall.Round(time.Microsecond),
				c.TxTime.Round(time.Microsecond), c.Serial.Round(time.Microsecond), c.Aborted)
		}
	}
}
