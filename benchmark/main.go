// Command benchmark is DMac's performance ledger: five workloads, the
// end-to-end metrics a user sees and, with -trace 1, the per-layer metrics
// behind them. See README.md.
//
//	bash benchmark/run.sh -seed 1                       # all five workloads
//	bash benchmark/run.sh -workload gnmf -seed 1 -trace 1
//	bash benchmark/run.sh -seed 1 -runs 10 -out a.json  # a result set
//	bash benchmark/run.sh -compare a.json b.json        # the regression gate
//
// Every workload runs in a child process of its own, so peak_rss_bytes and
// cpu_s belong to one workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// setupSamples is how many times a run sets a workload up: the timed child
// and setupSamples-1 children that stop after set-up. setup_s is the median.
const setupSamples = 3

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the driver's JSON line last (default: all five)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", refSeconds, "nominal length of the timed phase; op counts scale with it")
		trace    = flag.Int("trace", 0, "1: the traced run, which yields the per-layer metrics")
		runs     = flag.Int("runs", 1, "runs per workload, seeds seed..seed+runs-1")
		out      = flag.String("out", "", "write host metadata and every run to this result file")
		workDir  = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for checkpoints and traces")
		compare  = flag.Bool("compare", false, "compare two result files (parent, change) and exit 1 on a regression")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
		child    = flag.String("child", "", "internal: run the workload in this process (run | setup)")
		smoke    = flag.Bool("smoke", false, "toy sizes (the test's smoke pass)")
	)
	flag.Parse()
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	abs, err := filepath.Abs(*workDir)
	if err != nil {
		fatal(err)
	}
	switch {
	case *manifest:
		printManifest()
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *child != "":
		cfg := runConfig{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke,
			SetupOnly: *child == "setup", WorkDir: abs,
			TraceOut: traceFile(abs, *workload, *seed),
		}
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	default:
		names := []string{*workload}
		if *workload == "" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.Name)
			}
		} else if findWorkload(*workload) == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		set := ResultSet{Host: hostInfo(abs), Seconds: *seconds}
		fmt.Printf("host: %+v\n", set.Host)
		var last Run
		for _, name := range names {
			for s := *seed; s < *seed+int64(*runs); s++ {
				r, err := measure(name, s, *seconds, *trace == 1, *smoke, abs)
				if err != nil {
					fatal(err)
				}
				printRun(r)
				set.Runs = append(set.Runs, r)
				last = r
			}
		}
		if *out != "" {
			blob, err := json.MarshalIndent(set, "", " ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if *workload != "" {
			line, err := json.Marshal(struct {
				Correct   bool    `json:"correct"`
				Attempted int     `json:"attempted"`
				Failed    int     `json:"failed"`
				Metrics   Metrics `json:"metrics"`
			}{last.Correct, last.Attempted, last.Failed, last.Metrics})
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
		}
	}
}

// traceFile is where the traced child of a run leaves its Chrome trace.
func traceFile(workDir, workload string, seed int64) string {
	return filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// Run is one measured run of one workload as the parent reports it: what the
// child measured, narrowed to the end-to-end metrics of the untraced run or
// the per-layer metrics of the traced one.
type Run struct {
	Result
	Metrics   Metrics `json:"metrics"`
	TraceFile string  `json:"trace_file,omitempty"`
}

// ResultSet is a result file: where it was measured and every run.
type ResultSet struct {
	Host    Host  `json:"host"`
	Seconds int   `json:"seconds"`
	Runs    []Run `json:"runs"`
}

// spawn runs one workload in a child process with GOMAXPROCS set through the
// environment and waits for it.
func spawn(mode, workload string, seed int64, seconds int, trace, smoke bool, workDir string) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", mode, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-work", workDir,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	cmd.Stderr = os.Stderr
	blob, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", mode, workload, err)
	}
	var res Result
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, fmt.Errorf("%s child of %s: %w", mode, workload, err)
	}
	return &res, nil
}

// measure makes one run. Untraced: the timed child plus set-up-only children
// for the setup_s median. Traced: an untraced and a traced child, whose
// difference in op_p50_s is the tracing overhead.
func measure(workload string, seed int64, seconds int, trace, smoke bool, workDir string) (Run, error) {
	plain, err := spawn("run", workload, seed, seconds, false, smoke, workDir)
	if err != nil {
		return Run{}, err
	}
	res, defs := plain, endToEnd
	if trace {
		if res, err = spawn("run", workload, seed, seconds, true, smoke, workDir); err != nil {
			return Run{}, err
		}
		base := plain.Values["op_p50_s"]
		res.Values["bench.trace_overhead_share"] = ratio(added(res.Values["op_p50_s"], base), base)
		defs = perLayer
	} else {
		setups := []float64{plain.Values["setup_s"]}
		for len(setups) < setupSamples {
			s, err := spawn("setup", workload, seed, seconds, false, smoke, workDir)
			if err != nil {
				return Run{}, err
			}
			setups = append(setups, s.Values["setup_s"])
		}
		res.Values["setup_s"] = median(setups)
	}
	r := Run{Result: *res, Metrics: fill(defs, res.Values)}
	r.Values = nil
	if trace {
		r.TraceFile = traceFile(workDir, workload, seed)
	}
	return r, nil
}

// printRun prints every metric of a run by name, with its unit.
func printRun(r Run) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer, trace in " + r.TraceFile
	}
	fmt.Printf("== %s seed %d (%s): %d ops x %d client(s) after %d warm-up, %d failed, correct=%v\n",
		r.Workload, r.Seed, kind, r.Attempted/r.Clients, r.Clients, r.WarmOps, r.Failed, r.Correct)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Printf("  %-32s %16.9g %s\n", name, v.Value, v.Unit)
	}
	for _, n := range r.Notes {
		fmt.Println("  !", n)
	}
}

// printManifest prints BENCHMARK.json from the tables this program measures
// by, so the two cannot drift apart (bench_test.go checks the committed
// file).
func printManifest() {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}
