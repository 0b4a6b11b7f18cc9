// Command diadsperf is the repository's benchmark: a record-and-replay
// measurement of the product path — evidence in, ranked incident out —
// end to end and layer by layer. It simulates a fixture once in set-up,
// hands the program only the generated inputs (pre-serialised JSON
// bodies, scenario inputs, a fleet spec), measures with harness tracing
// off, verifies what the program answered, and prints every metric by
// name with its unit. A second, traced pass replays the same inputs
// through each layer's public functions and reports per-layer numbers.
// README.md in this directory is the glossary.
//
// One workload, the way BENCHMARK.json's driver runs it (the last line
// of standard output is the result object):
//
//	go run ./cmd/diadsperf --workload ingest-healthy --seed 1 --seconds 10 --trace 0
//
// The whole suite, with the traced pass and span files:
//
//	go run ./cmd/diadsperf -seed 1 -tracedir /tmp/diadsperf [-json FILE] [-check]
//
// Flags select what to run and where to write, never how the product
// behaves.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one workload of the benchmark.
type workloadDef struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	run  func(runConfig) (*outcome, error)
}

var workloadDefs = []workloadDef{
	{wlIngestHealthy,
		"closed loop of healthy evidence: api decode/intake, store append and monitor do all the work, service and pipeline none",
		ingestHealthy},
	{wlIngestPaced,
		"open loop at 60000 items/s with faulty tenants: every layer takes part, the pool competes with intake; shows as incident lag",
		ingestPaced},
	{wlDiagnoseBatch,
		"nine paper scenarios diagnosed cold on one goroutine: pipeline and store window reads only; bypasses api, monitor, service",
		diagnoseBatch},
	{wlFleetSim,
		"whole simulated fleet: the only door into waves, epoch seal, learning and retention; simulator inside the timed section",
		fleetSim},
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}

// runTraced is the traced pass of one workload: an untraced twin, then
// the same run with harness spans on and the layer replays after it.
// Each gets half the time; the difference between them is the tracing
// overhead.
func runTraced(w *workloadDef, rc runConfig) (*outcome, []span, error) {
	rc.seconds /= 2
	rc.size.setups = 1
	plain, err := w.run(rc)
	if err != nil {
		return nil, nil, err
	}
	rc.trace = newTracer()
	heap := sampleHeap()
	u0 := readUsage()
	o, err := w.run(rc)
	c := readUsage().since(u0)
	peak := heap.stop()
	if err != nil {
		return nil, nil, err
	}
	spans := rc.trace.snapshot()
	o.metrics["runtime.peak_heap_mb"] = peak
	o.metrics["runtime.gc_pause_ms"] = ms(c.gcPause)
	o.metrics["runtime.num_gc"] = float64(c.numGC)
	o.metrics["trace.spans"] = float64(len(spans))
	if traced := o.metrics["ops_per_s"]; traced > 0 {
		o.metrics["trace.overhead_pct"] = 100 * (plain.metrics["ops_per_s"]/traced - 1)
	}
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.failures = append(plain.failures, o.failures...)
	return o, spans, nil
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	jsonFile string
	check    bool
}

func (opt options) runConfig() runConfig {
	nproc := runtime.NumCPU()
	return runConfig{
		seed:    opt.seed,
		seconds: time.Duration(opt.seconds * float64(time.Second)),
		nproc:   nproc,
		size:    fullSizes(nproc),
	}
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "run this one workload and print the result object last (default: the whole suite)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&opt.trace, "trace", 0, "1: the traced pass (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	flag.StringVar(&opt.traceDir, "tracedir", "", "write trace-<workload>.jsonl here (implies the traced pass)")
	flag.StringVar(&opt.jsonFile, "json", "", "suite mode: also write every metric to this file")
	flag.BoolVar(&opt.check, "check", false, "suite mode: run the suite twice and fail if the two disagree beyond the bounds")
	flag.Parse()
	if opt.seconds < 1 || (opt.trace != 0 && opt.trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(opt, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diadsperf:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the command line and returns the exit code: 0 when every
// output checked out, 1 when a run had failures (after printing its
// metrics). An error means the benchmark itself could not run.
func run(opt options, stdout, stderr io.Writer) (int, error) {
	if opt.workload != "" {
		return runOne(opt, stdout, stderr)
	}
	first, err := runSuite(opt, stdout)
	if err != nil {
		return 0, err
	}
	code := first.exitCode()
	if opt.check {
		fmt.Fprintf(stdout, "\n-check: second pass over the same binary\n")
		second, err := runSuite(opt, io.Discard)
		if err != nil {
			return 0, err
		}
		if !compareSuites(stdout, first, second) || second.exitCode() != 0 {
			code = 1
		}
	}
	if opt.jsonFile != "" {
		if err := first.writeJSON(opt.jsonFile, opt); err != nil {
			return 0, err
		}
	}
	return code, nil
}

// runOne is the driver's protocol: one workload, one result object.
func runOne(opt options, stdout, stderr io.Writer) (int, error) {
	w := findWorkload(opt.workload)
	if w == nil {
		return 0, fmt.Errorf("unknown workload %q (BENCHMARK.json lists them)", opt.workload)
	}
	rc := opt.runConfig()
	var o *outcome
	var err error
	defs := endToEnd
	if opt.trace == 1 || opt.traceDir != "" {
		var spans []span
		defs = perLayer
		if o, spans, err = runTraced(w, rc); err == nil && opt.traceDir != "" {
			var path string
			if path, err = writeSpans(opt.traceDir, w.name, spans); err == nil {
				o.note("%d spans written to %s", len(spans), path)
			}
		}
	} else {
		o, err = w.run(rc)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, n := range o.notes {
		fmt.Fprintln(stderr, n)
	}
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "FAILED:", f)
	}
	line, err := json.Marshal(o.result(defs))
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if o.failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// suiteResult is one pass over every workload, by workloadDefs order.
type suiteResult struct {
	plain  []resultLine // end-to-end
	traced []resultLine // per-layer; zero values when the pass was not asked for
}

func (s *suiteResult) exitCode() int {
	for _, set := range [][]resultLine{s.plain, s.traced} {
		for _, r := range set {
			if r.Failed > 0 {
				return 1
			}
		}
	}
	return 0
}

// runChild runs one workload the way the driver does — this binary, the
// driver's arguments, a process of its own — and parses its result
// line. The suite is that protocol in a loop, so its numbers are the
// driver's numbers: no workload inherits another's heap, telemetry
// registry or goroutines.
func runChild(opt options, workload string, trace int, w io.Writer) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(opt.seed, 10),
		"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	if trace == 1 && opt.traceDir != "" {
		args = append(args, "--tracedir", opt.traceDir)
	}
	cmd := exec.Command(exe, args...)
	var notes bytes.Buffer
	cmd.Stderr = &notes
	out, err := cmd.Output()
	for _, n := range strings.Split(strings.TrimSpace(notes.String()), "\n") {
		if n != "" {
			fmt.Fprintf(w, "  # %s\n", n)
		}
	}
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return res, fmt.Errorf("%s: %w", workload, err) // exit 1 still carries a result line
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

// runSuite runs the four workloads untraced and, when asked, traced.
func runSuite(opt options, w io.Writer) (*suiteResult, error) {
	traced := opt.trace == 1 || opt.traceDir != "" || opt.check
	fmt.Fprintf(w, "diadsperf: seed %d, %gs per run, nproc %d, %s\n", opt.seed, opt.seconds, runtime.NumCPU(), runtime.Version())
	res := &suiteResult{traced: make([]resultLine, len(workloadDefs))}
	for i, wl := range workloadDefs {
		fmt.Fprintf(w, "\n== %s\n   %s\n", wl.name, wl.why)
		r, err := runChild(opt, wl.name, 0, w)
		if err != nil {
			return nil, err
		}
		res.plain = append(res.plain, r)
		printResult(w, r, endToEnd, false)
		if !traced {
			continue
		}
		fmt.Fprintf(w, " traced pass (per-layer; layers the workload bypasses read zero and are not shown):\n")
		if res.traced[i], err = runChild(opt, wl.name, 1, w); err != nil {
			return nil, err
		}
		printResult(w, res.traced[i], perLayer, true)
	}
	return res, nil
}

// printResult writes a result's metrics by name with unit, in catalogue
// order, and the share of operations that failed.
func printResult(w io.Writer, r resultLine, defs []metricDef, skipZero bool) {
	for _, d := range defs {
		v := r.Metrics[d.name].Value
		if skipZero && v == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-30s %16.4f %-6s (%s is better)\n", d.name, v, d.unit, d.better)
	}
	fmt.Fprintf(w, "  %-30s %16.4f %-6s (%d failed of %d attempted)\n", "failed_share",
		float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Failed, r.Attempted)
}

// compareSuites prints the two passes side by side and reports whether
// they agree: every end-to-end metric within its own bound, every exact
// count identical.
func compareSuites(w io.Writer, a, b *suiteResult) bool {
	ok := true
	row := func(wl string, d metricDef, x, y float64, verdict string) {
		fmt.Fprintf(w, "  %-22s %-26s %16.4f %16.4f %-6s %s\n", wl, d.name, x, y, d.unit, verdict)
	}
	fmt.Fprintf(w, "  %-22s %-26s %16s %16s\n", "workload", "metric", "first", "second")
	for i, wl := range workloadDefs {
		for _, d := range endToEnd {
			x, y := a.plain[i].Metrics[d.name].Value, b.plain[i].Metrics[d.name].Value
			diff := 0.0
			if x != 0 {
				diff = (y - x) / x
			}
			verdict := fmt.Sprintf("%+.1f%% (bound %.0f%%)", 100*diff, 100*d.bound)
			if diff > d.bound || diff < -d.bound {
				verdict += "  DISAGREE"
				ok = false
			}
			row(wl.name, d, x, y, verdict)
		}
		for _, d := range perLayer {
			if !d.exact {
				continue
			}
			x, y := a.traced[i].Metrics[d.name].Value, b.traced[i].Metrics[d.name].Value
			verdict := "exact"
			if x != y {
				verdict = "exact  DISAGREE"
				ok = false
			}
			row(wl.name, d, x, y, verdict)
		}
	}
	return ok
}

// writeJSON writes every metric of the pass, with what it ran on.
func (s *suiteResult) writeJSON(path string, opt options) error {
	type wlJSON struct {
		EndToEnd resultLine  `json:"end_to_end"`
		PerLayer *resultLine `json:"per_layer,omitempty"`
	}
	doc := struct {
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		NProc     int               `json:"nproc"`
		Go        string            `json:"go"`
		Workloads map[string]wlJSON `json:"workloads"`
	}{opt.seed, opt.seconds, runtime.NumCPU(), runtime.Version(), make(map[string]wlJSON)}
	for i, wl := range workloadDefs {
		j := wlJSON{EndToEnd: s.plain[i]}
		if s.traced[i].Metrics != nil {
			j.PerLayer = &s.traced[i]
		}
		doc.Workloads[wl.name] = j
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
