package bench

import (
	"fmt"
	"strings"

	"gdsx"
	"gdsx/internal/expand"
	"gdsx/internal/schedule"
	"gdsx/internal/workloads"
)

// AblationSyncRow compares the minimal DOACROSS ordered-section
// placement against the conservative whole-body placement (the paper
// notes its own placement "still has room for improvement"; the coarse
// variant reproduces the sync-dominated behaviour it reports for
// 256.bzip2 and 456.hmmer).
type AblationSyncRow struct {
	Name           string
	TightSpeedup8  float64
	CoarseSpeedup8 float64
	CoarseWaitPct8 float64
}

// AblationSync runs the sync-placement ablation over the DOACROSS
// workloads.
func (h *Harness) AblationSync() ([]AblationSyncRow, error) {
	var rows []AblationSyncRow
	for _, w := range workloads.All() {
		if w.Parallelism != "DOACROSS" {
			continue
		}
		d, err := h.Data(w)
		if err != nil {
			return nil, err
		}
		coarseOpts := expand.Optimized()
		coarseOpts.ConservativeSync = true
		coarse, err := h.tracedVariant(d, coarseOpts)
		if err != nil {
			return nil, err
		}
		nativeLoop := float64(loopOps(d.native))
		tight8, _ := h.loopTime(d.opt, 8)
		coarse8, agg := h.loopTime(coarse, 8)
		tot := float64(agg.Busy + agg.Sync + agg.Wait)
		if tot == 0 {
			tot = 1
		}
		rows = append(rows, AblationSyncRow{
			Name:           w.Name,
			TightSpeedup8:  nativeLoop / float64(tight8),
			CoarseSpeedup8: nativeLoop / float64(coarse8),
			CoarseWaitPct8: 100 * float64(agg.Wait) / tot,
		})
	}
	return rows, nil
}

// AblationHoistRow compares the single-core overhead of the expanded
// program with and without redirected-base hoisting (§3.4 CSE).
type AblationHoistRow struct {
	Name      string
	Hoisted   float64
	Unhoisted float64
}

// AblationHoist runs the base-hoisting ablation over every workload.
func (h *Harness) AblationHoist() ([]AblationHoistRow, error) {
	var rows []AblationHoistRow
	for _, w := range workloads.All() {
		d, err := h.Data(w)
		if err != nil {
			return nil, err
		}
		flatOpts := expand.Optimized()
		flatOpts.HoistBases = false
		flat, err := h.tracedVariant(d, flatOpts)
		if err != nil {
			return nil, err
		}
		n := float64(d.native.Counters[0])
		rows = append(rows, AblationHoistRow{
			Name:      w.Name,
			Hoisted:   float64(d.opt.Counters[0]) / n,
			Unhoisted: float64(flat.Counters[0]) / n,
		})
	}
	return rows, nil
}

// tracedVariant transforms a workload with custom expansion options and
// returns its traced sequential run.
func (h *Harness) tracedVariant(d *wlData, opts expand.Options) (gdsx.Result, error) {
	prog, err := gdsx.Compile(d.w.Name+".c", d.src)
	if err != nil {
		return gdsx.Result{}, err
	}
	tr, err := gdsx.Transform(prog, gdsx.TransformOptions{
		Expand:        &opts,
		ProfileSource: d.psrc,
		ProfileOpts:   h.run(gdsx.RunOptions{}),
	})
	if err != nil {
		return gdsx.Result{}, fmt.Errorf("%s: variant transform: %w", d.w.Name, err)
	}
	res, err := tr.Expanded.Run(h.run(gdsx.RunOptions{Threads: 1, Trace: true}))
	if err != nil {
		return gdsx.Result{}, err
	}
	if res.Output != d.native.Output {
		return gdsx.Result{}, fmt.Errorf("%s: variant output diverges", d.w.Name)
	}
	return res, nil
}

// AblationChunkRow reports the 8-thread loop speedup of one DOACROSS
// workload at one dynamic chunk size.
type AblationChunkRow struct {
	Name     string
	Chunk    int
	Speedup8 float64
}

// AblationChunk sweeps the DOACROSS chunk size over the ordered
// workloads, validating the paper's choice of chunk size 1 (§4.3):
// larger chunks serialize the ordered-section pipeline.
func (h *Harness) AblationChunk() ([]AblationChunkRow, error) {
	var rows []AblationChunkRow
	for _, w := range workloads.All() {
		if w.Parallelism != "DOACROSS" {
			continue
		}
		d, err := h.Data(w)
		if err != nil {
			return nil, err
		}
		nativeLoop := float64(loopOps(d.native))
		for _, chunk := range []int{1, 2, 4, 8} {
			m := h.cfg.Model
			m.DynamicChunk = chunk
			var total int64
			for _, tr := range d.opt.Traces {
				total += schedule.Simulate(tr, 8, m).Time
			}
			rows = append(rows, AblationChunkRow{
				Name: w.Name, Chunk: chunk, Speedup8: nativeLoop / float64(total),
			})
		}
	}
	return rows, nil
}

// RenderChunkAblation formats the chunk sweep.
func RenderChunkAblation(rows []AblationChunkRow) string {
	var sb strings.Builder
	sb.WriteString("\nAblation: DOACROSS dynamic chunk size (loop speedup at 8 threads)\n")
	sb.WriteString("=================================================================\n")
	t := &table{}
	t.add("benchmark", "chunk 1", "chunk 2", "chunk 4", "chunk 8")
	byName := map[string][]float64{}
	var order []string
	for _, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r.Speedup8)
	}
	for _, name := range order {
		v := byName[name]
		t.add(name, f2(v[0]), f2(v[1]), f2(v[2]), f2(v[3]))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// layoutProbeSrc is a microbenchmark for the layout ablation: a heap
// buffer much larger than the modeled 64 KiB cache, streamed by every
// iteration. In bonded mode one thread's copy is contiguous; in
// interleaved mode its elements are N*4 bytes apart, so each cache
// line carries data of N threads and a thread touches N times as many
// lines — the locality argument of the paper's §3.1.
const layoutProbeSrc = `
int main() {
    int n = 32768;
    int *buf = (int*)malloc(n * 4);
    int *out = (int*)malloc(8 * 4);
    int it;
    parallel for (it = 0; it < 8; it++) {
        int k;
        for (k = 0; k < n; k++) {
            buf[k] = it + k;
        }
        int s = 0;
        for (k = 0; k < n; k++) {
            s += buf[k];
        }
        out[it] = s;
    }
    long total = 0;
    for (it = 0; it < 8; it++) { total += out[it]; }
    print_long(total);
    free(buf);
    free(out);
    return 0;
}
`

// AblationLayoutRow reports the cache misses of the layout probe under
// one copy layout at 8 simulated threads.
type AblationLayoutRow struct {
	Layout      string
	CacheMisses int64
	LoopOps     int64
}

// AblationLayout measures the locality gap between the bonded and
// interleaved layouts (paper Fig. 2 discussion).
func (h *Harness) AblationLayout() ([]AblationLayoutRow, error) {
	var rows []AblationLayoutRow
	for _, layout := range []expand.Layout{expand.Bonded, expand.Interleaved} {
		opts := expand.Optimized()
		opts.Layout = layout
		prog, err := gdsx.Compile("layout.c", layoutProbeSrc)
		if err != nil {
			return nil, err
		}
		tr, err := gdsx.Transform(prog, gdsx.TransformOptions{Expand: &opts})
		if err != nil {
			return nil, fmt.Errorf("layout probe (%v): %w", layout, err)
		}
		res, err := tr.Expanded.Run(h.run(gdsx.RunOptions{Threads: 8, Trace: true}))
		if err != nil {
			return nil, err
		}
		var miss, ops int64
		for _, t := range res.Traces {
			for _, c := range t.Iters {
				miss += c.Mem
				ops += c.Total()
			}
		}
		rows = append(rows, AblationLayoutRow{
			Layout: layout.String(), CacheMisses: miss, LoopOps: ops,
		})
	}
	return rows, nil
}

// RenderAblations formats both ablation tables.
func RenderAblations(sync []AblationSyncRow, hoist []AblationHoistRow) string {
	var sb strings.Builder
	sb.WriteString("\nAblation: DOACROSS sync placement (loop speedup at 8 threads)\n")
	sb.WriteString("=============================================================\n")
	t := &table{}
	t.add("benchmark", "minimal placement", "whole-body (paper-like)", "coarse wait %")
	for _, r := range sync {
		t.add(r.Name, f2(r.TightSpeedup8), f2(r.CoarseSpeedup8), f1(r.CoarseWaitPct8))
	}
	sb.WriteString(t.String())

	sb.WriteString("\nAblation: redirected-base hoisting (1-core slowdown)\n")
	sb.WriteString("====================================================\n")
	t = &table{}
	t.add("benchmark", "hoisted (§3.4)", "unhoisted")
	for _, r := range hoist {
		t.add(r.Name, f2(r.Hoisted), f2(r.Unhoisted))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// RenderLayoutAblation formats the layout locality table.
func RenderLayoutAblation(rows []AblationLayoutRow) string {
	var sb strings.Builder
	sb.WriteString("\nAblation: copy layout locality (layout probe, 8 threads)\n")
	sb.WriteString("========================================================\n")
	t := &table{}
	t.add("layout", "cache misses", "loop ops")
	for _, r := range rows {
		t.add(r.Layout, fmt.Sprint(r.CacheMisses), fmt.Sprint(r.LoopOps))
	}
	sb.WriteString(t.String())
	return sb.String()
}
