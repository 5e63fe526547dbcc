// Command perfbench is the repository's campaign benchmark. It runs one
// of four fuzzing workloads for a fixed wall-clock measuring time, checks
// that the campaigns' outputs are correct, and prints one JSON result as
// its last line of output: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run. See README.md in this directory.
//
//	bash perfbench/run.sh --workload packet-serial --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

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

// host is the header printed before every result.
type host struct {
	Workload   string `json:"workload"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Date       string `json:"date"`
	// Valid is false when the host has fewer CPUs than the workload has
	// busy threads (fuzzing workers, or the fuzzer and its target
	// process): a multi-core row counts only when NumCPU ≥ workers.
	Valid bool `json:"valid"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func main() {
	os.Exit(runTo(os.Stdout, os.Stderr, os.Args[1:]))
}

// runTo runs the benchmark command line args, printing the result to
// stdout and diagnostics to stderr, and returns the exit code.
func runTo(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; equal seeds give equal campaign inputs")
	seconds := fs.Float64("seconds", 30, "measuring time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	server := fs.String("server", "", "toy Modbus server binary (proc-toy)")
	work := fs.String("work", "", "directory for checkpoint files (default: a fresh one under the current directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	dir := *work
	if dir == "" {
		d, err := os.MkdirTemp(".", ".perfbench-work-")
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(d)
		dir = d
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    dir,
		server:  *server,
		out:     stdout,
		stderr:  stderr,
		sz:      defaultSizes,
	}
	if e.server != "" {
		abs, err := filepath.Abs(e.server)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		e.server = abs
	}

	h := host{
		Workload:   w.name,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Valid:      runtime.NumCPU() >= w.threads,
	}
	hb, _ := json.Marshal(map[string]host{"host": h})
	fmt.Fprintln(stdout, string(hb))

	res, err := measure(w, e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(f io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "# %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(f, string(b))
}
