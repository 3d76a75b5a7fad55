// Command benchmark is the repository's end-to-end benchmark of the
// write/serve stack: synchronous OLTP statements against V3 (oltp_sync),
// group-commit flushes over 16 views (batch_multiview), and a writer with
// asynchronous component-parallel flushes beside a snapshot reader
// (serve_mixed). See BENCHMARK.json at the repository root for the
// workloads, metrics and predictions.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload oltp_sync --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload twice, untraced then traced, for half of --seconds each and
// reports the per-layer metrics. Every run ends with the output check; the
// last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "oltp_sync | batch_multiview | serve_mixed")
	seed := flag.Int64("seed", 1, "seed of the generated data and statements")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, dur)
	} else {
		res, err = runPlain(*workload, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	ctx := map[string]any{
		"workload": *workload, "seed": *seed, "sf": scaleFactor, "views": len(viewsFor(*workload)),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"trace": *trace == 1,
	}
	c, _ := json.Marshal(ctx) // a map of plain values always marshals
	fmt.Printf("context %s\n", c)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runPlain is an untraced run: set up setupReps times, measure the last
// set-up for dur, check the output, report the end-to-end metrics.
func runPlain(workload string, seed int64, dur time.Duration) (*result, error) {
	var e *env
	var setups []float64
	for i := 0; i < setupReps; i++ {
		e = nil
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = setup(workload, seed, false); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	st := measure(e, limit{dur: dur}, nil)
	res := finish(e, st)
	sort.Float64s(setups)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	res.Metrics = map[string]metric{
		"setup_s":        {setups[len(setups)/2], "s"},
		"stmts_per_s":    {ratio(float64(st.stmts), st.wall.Seconds()), "1/s"},
		"stmt_p50_us":    {us(st.stmtLat.pct(0.50)), "us"},
		"stmt_p99_us":    {us(st.stmtLat.pct(0.99)), "us"},
		"flush_p50_ms":   {ms(st.flushLat.pct(0.50)), "ms"},
		"flush_p90_ms":   {ms(st.flushLat.pct(0.90)), "ms"},
		"read_p50_us":    {us(st.readLat.pct(0.50)), "us"},
		"read_p99_us":    {us(st.readLat.pct(0.99)), "us"},
		"visible_p50_ms": {ms(st.visLat.pct(0.50)), "ms"},
		"visible_p90_ms": {ms(st.visLat.pct(0.90)), "ms"},
		"heap_live_mb":   {st.heapLiveMB, "MB"},
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d statements in %v, %d flushes, %d reads, %d visibility samples\n",
		workload, seed, st.stmts, st.wall.Round(time.Millisecond), len(st.flushLat), len(st.readLat), len(st.visLat))
	return res, nil
}

// runTraced is a traced invocation: an untraced phase (the overhead base
// and the runtime counters) and a traced phase (spans, timed layer calls,
// counters), each on a fresh set-up for half of dur, each checked.
func runTraced(workload string, seed int64, dur time.Duration) (*result, error) {
	ea, err := setup(workload, seed, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	a := measure(ea, limit{dur: dur / 2}, nil)
	resA := finish(ea, a)
	ea = nil
	runtime.GC()

	eb, err := setup(workload, seed, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	lay := newLayers(eb)
	c0 := counters(eb)
	b := measure(eb, limit{dur: dur / 2}, lay)
	c := counters(eb)
	for n, v := range c0 {
		c[n] -= v
	}
	res := finish(eb, b)
	res.Correct = res.Correct && resA.Correct
	res.Attempted += resA.Attempted
	res.Failed += resA.Failed
	res.Metrics = lay.perLayer(workload, a, b, c)
	fmt.Fprintf(os.Stderr, "%s seed %d traced: %d statements untraced, %d traced, %d flushes folded\n",
		workload, seed, a.stmts, b.stmts, lay.flushes)
	return res, nil
}

// finish runs the output check and fills the correctness and attempt
// accounting of a result.
func finish(e *env, st *runStats) *result {
	res := &result{Correct: true, Attempted: st.attempted, Failed: st.failed}
	for _, msg := range st.errs {
		fmt.Fprintf(os.Stderr, "benchmark: failure: %s\n", msg)
	}
	if st.failed > 0 {
		res.Correct = false
	}
	t := time.Now()
	if err := check(e); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: output check failed: %v\n", err)
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "output check (%d views, replay of %d statements): %v\n",
		len(e.views), e.executed, time.Since(t).Round(time.Millisecond))
	return res
}
