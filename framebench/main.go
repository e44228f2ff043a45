// Command framebench is the repository benchmark: it measures what a
// client of the registration service sees, end to end, and in a separate
// traced run splits that time into the program's layers. See README.md
// for the workloads and why each exists.
//
// Usage, from the repository root (run.sh builds the benchmark and the
// servers from the checkout, then runs the benchmark):
//
//	bash framebench/run.sh --workload sensor-stream --seed 1 --seconds 38 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the end-to-end metrics, or with
// --trace 1 the per-layer ones). The lines before it give each metric
// with its sample count, and the run's provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"tigris/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type report map[string]metric

func (r report) set(name, unit string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r[name] = metric{Value: v, Unit: unit, samples: samples}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	outDir   string
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "sensor-stream, slam-circuit or replay-batch")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.IntVar(&opt.seconds, "seconds", 38, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&opt.binDir, "bin", ".bench_build/bin", "directory holding tigris-serve and tigris-gateway")
	flag.StringVar(&opt.outDir, "out", ".bench_build", "directory for server logs and span files")
	flag.Parse()
	opt.trace = trace == 1

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		killChildren()
		os.Exit(2)
	}()

	// A hung system under test must not hang the benchmark: give up well
	// inside the three minutes a run may take.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "framebench: run exceeded 170s")
		killChildren()
		os.Exit(1)
	})
	code := run(opt)
	killChildren()
	os.Exit(code)
}

func run(opt options) (code int) {
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "framebench: panic: %v\n%s", p, debug.Stack())
			code = 1
		}
	}()
	w, ok := workloads[opt.workload]
	if !ok || opt.seconds < 1 {
		fmt.Fprintf(os.Stderr, "framebench: unknown workload %q or bad --seconds\n", opt.workload)
		return 2
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		return 1
	}
	o := &ops{}
	rep := report{}
	var spans *spanLog
	if opt.trace {
		spans = newSpanLog()
	}
	var err error
	if w.served {
		err = runServed(w, opt, o, rep, spans)
	} else {
		err = runReplay(opt, o, rep, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "framebench:", err)
		return 1
	}
	if spans != nil {
		path := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, opt.seed))
		if err := writeSpans(path, spans, opt); err != nil {
			fmt.Fprintln(os.Stderr, "framebench:", err)
			return 1
		}
		fmt.Println("spans:", path)
	}
	for _, e := range o.firstErrs {
		fmt.Fprintln(os.Stderr, "framebench: failed:", e)
	}
	printReport(w, opt, rep, o)
	return 0
}

func writeSpans(path string, spans *spanLog, opt options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	meta := map[string]any{"tool": "framebench", "workload": opt.workload, "seed": opt.seed}
	if err := obs.WriteChromeTrace(f, obs.Export{Events: spans.ev}, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints each metric with its sample count, the run's
// provenance, and last the result object.
func printReport(w *workload, opt options, rep report, o *ops) {
	names := make([]string, 0, len(rep))
	for n := range rep {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep[n]
		fmt.Printf("%-34s %14.4f %-8s n=%d\n", n, m.Value, m.Unit, m.samples)
	}
	prov := map[string]any{
		"workload":        w.name,
		"seed":            opt.seed,
		"seconds":         opt.seconds,
		"trace":           opt.trace,
		"num_cpu":         runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"revision":        revision(),
		"latency_limit_s": w.limit.Seconds(),
	}
	if w.served {
		prov["offered_frames_per_s"] = float64(w.sensors) / w.period.Seconds()
		prov["sensors"] = w.sensors
		if w.readEvery > 0 {
			prov["optimized_reads_per_s"] = 1 / (w.period.Seconds() * float64(w.readEvery))
		}
	} else {
		prov["offered"] = "closed loop, one pipelined engine"
		prov["latency_limit_s"] = replayLimit.Seconds()
	}
	prov["generator_cpu_ms"] = selfCPUMs()
	b, _ := json.Marshal(prov)
	fmt.Println("provenance:", string(b))

	out := map[string]any{
		"correct":   o.failed.Load() == 0,
		"attempted": o.attempted.Load(),
		"failed":    o.failed.Load(),
		"metrics":   rep,
	}
	b, _ = json.Marshal(out)
	fmt.Println(string(b))
}

// revision is the VCS revision the benchmark was built from, when the
// build saw one.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// setE2E fills the end-to-end metrics shared by every workload.
func setE2E(rep report, setupS, lat []float64, committed, attempted, onTime int, wall time.Duration,
	terr []float64, cpuMs float64, rssKB []float64, o *ops) {
	rep.set("setup_s", "s", median(setupS), len(setupS))
	rep.set("frame_p50_ms", "ms", percentile(lat, 50), len(lat))
	rep.set("frame_p95_ms", "ms", percentile(lat, 95), len(lat))
	rep.set("frames_per_s", "1/s", float64(committed)/wall.Seconds(), committed)
	rep.set("on_time_frac", "ratio", float64(onTime)/float64(max(attempted, 1)), attempted)
	okFrac := 1 - float64(o.failed.Load())/float64(max(o.attempted.Load(), 1))
	rep.set("ok_frac", "ratio", okFrac, int(o.attempted.Load()))
	rep.set("terr_pct", "%", median(terr), len(terr))
	good := 0
	for _, e := range terr {
		if e <= badPairPct {
			good++
		}
	}
	rep.set("good_pair_frac", "ratio", float64(good)/float64(max(len(terr), 1)), len(terr))
	rep.set("cpu_ms_per_frame", "ms", cpuMs/float64(max(committed, 1)), committed)
	rep.set("peak_rss_mb", "MB", percentile(rssKB, 95)/1024, len(rssKB))
	if p := highestSupported(len(lat)); p < 95 {
		fmt.Fprintf(os.Stderr, "framebench: only %d latency samples; p%g is the highest percentile with 10 beyond it\n", len(lat), p)
	}
}
