// Command bench is the one ledger for the real LSL stack: six workloads
// driven as closed loops through in-process targets, depots and emulated
// paths on loopback, measured end to end and layer by layer. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result object as the last line (default: all six)")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", 10, "measured seconds per workload")
		trace        = flag.Int("trace", -1, "1: traced run and per-layer metrics only; 0: end-to-end only; default: both")
		outDir       = flag.String("dir", "bench/out", "directory for trace.json, the result ledger and temporary files")
		outFile      = flag.String("out", "", "write the ledger as JSON here (default <dir>/result.json)")
		repeat       = flag.Int("repeat", 1, "run this many full sets alternately and report per-metric median and quartiles")
		compare      = flag.Bool("compare", false, "compare two ledgers: bench -compare old.json new.json")
		specPath     = flag.String("spec", "BENCHMARK.json", "contract naming the gated metrics and their bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare old.json new.json")
		}
		os.Exit(runCompare(*specPath, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		outDir:  *outDir,
		tmpDir:  filepath.Join(*outDir, "tmp"),
	}
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal("unknown workload %q", *workloadName)
		}
		os.Exit(runContract(cfg, w, *trace == 1, *specPath))
	}
	if *outFile == "" {
		*outFile = filepath.Join(*outDir, "result.json")
	}
	os.Exit(runLedger(cfg, *trace, *repeat, *outFile, *specPath))
}

// config is what every mode shares.
type config struct {
	seed    int64
	measure time.Duration
	outDir  string
	tmpDir  string
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// contractResult is the object the acceptance driver reads from the last
// line of standard output.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract runs one workload the way the acceptance driver asks for
// it: untraced it reports every end-to-end metric BENCHMARK.json names,
// traced every per-layer metric.
func runContract(cfg config, w *workload, traced bool, specPath string) int {
	sp, err := readSpec(specPath)
	if err != nil {
		fatal("%v", err)
	}
	l := newLedger(cfg.seed, int(cfg.measure/time.Second))
	var attempted, failed int
	var wanted []specMetric
	if traced {
		attempted, failed, err = tracedRun(l, cfg, w, 0, true)
		wanted = sp.PerLayer
	} else {
		var o *runOutcome
		o, err = measureWorkload(w, cfg)
		if err == nil {
			addE2E(l, w.name, o)
			attempted, failed = o.e2e.attempted, o.e2e.failed
		}
		wanted = sp.EndToEnd
	}
	os.RemoveAll(cfg.tmpDir)
	if err != nil {
		fatal("%v", err)
	}
	l.print(os.Stdout, 0)
	res := contractResult{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]contractMetric)}
	byName := make(map[string]row)
	for _, r := range l.Rows {
		byName[r.Metric] = r
	}
	for _, m := range wanted {
		r, ok := byName[m.Name]
		if !ok || !finite(r.Value) {
			fatal("metric %s named in %s was not measured", m.Name, specPath)
		}
		res.Metrics[m.Name] = contractMetric{Value: r.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	return 0
}
