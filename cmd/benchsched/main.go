// Command benchsched compares the static Peach* engine with the adaptive
// scheduler (core.Config.Adaptive) on the built-in protocol targets and
// emits the BENCH_sched.json measurement fields as one JSON object on
// stdout: per target, the edge coverage, paths, corpus size and
// distillation count of both configurations at the same execution budget
// and seed. `make bench-sched` runs it; paste the object into the
// "measurements" slot of BENCH_sched.json when recording a new machine or
// a scheduler change.
//
// Usage:
//
//	benchsched [-execs 100000] [-seed 1] [-targets libmodbus,IEC104,lib60870,libiccp]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/targets"

	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// row is one (target, configuration) measurement.
type row struct {
	Edges        int     `json:"edges"`
	Paths        int     `json:"paths"`
	Corpus       int     `json:"corpus"`
	Distills     int     `json:"distills"`
	EdgesPerMExe float64 `json:"edges_per_1m_execs"`
	NsPerExec    float64 `json:"ns_per_exec"`
}

// measure runs one serial Peach* engine on the named target at the given
// budget and seed: adaptive switches the scheduler on, and sessions
// generates sequences through the target's state model instead of
// independent packets (the sequence-vs-single-packet comparison row).
func measure(name string, execs int, seed uint64, adaptive, sessions bool) (row, error) {
	tgt, err := targets.New(name)
	if err != nil {
		return row{}, err
	}
	cfg := core.Config{
		Models:   tgt.Models(),
		Target:   tgt,
		Strategy: core.StrategyPeachStar,
		Seed:     seed,
		Adaptive: adaptive,
	}
	if sessions {
		st, ok := tgt.(targets.SessionTarget)
		if !ok {
			return row{}, fmt.Errorf("benchsched: target %q publishes no session state model", name)
		}
		cfg.Session = st.StateModel()
	}
	eng, err := core.New(cfg)
	if err != nil {
		return row{}, err
	}
	start := time.Now()
	eng.Run(execs)
	elapsed := time.Since(start)
	s := eng.Stats()
	return row{
		Edges:        s.Edges,
		Paths:        s.Paths,
		Corpus:       s.CorpusPuzzles,
		Distills:     s.Distills,
		EdgesPerMExe: float64(s.Edges) / float64(s.Execs) * 1e6,
		NsPerExec:    float64(elapsed.Nanoseconds()) / float64(s.Execs),
	}, nil
}

func main() {
	execs := flag.Int("execs", 100000, "execution budget per configuration")
	seed := flag.Uint64("seed", 1, "campaign seed")
	list := flag.String("targets", "libmodbus,IEC104,lib60870,libiccp", "comma-separated target names")
	flag.Parse()

	type pair struct {
		Static   row `json:"static"`
		Adaptive row `json:"adaptive"`
	}
	results := map[string]pair{}
	adaptiveWins := 0
	var names []string
	for _, name := range strings.Split(*list, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	for _, name := range names {
		st, err := measure(name, *execs, *seed, false, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ad, err := measure(name, *execs, *seed, true, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results[name] = pair{Static: st, Adaptive: ad}
		if ad.Edges >= st.Edges {
			adaptiveWins++
		}
	}

	// Sequence vs single-packet on the session-capable IEC104 target: same
	// budget and seed, session walks against independent packets. Reuses
	// the single-packet row when IEC104 is already in the target list.
	seqRow, err := measure("IEC104", *execs, *seed, false, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	singleRow, measured := results["IEC104"]
	if !measured {
		st, err := measure("IEC104", *execs, *seed, false, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		singleRow = pair{Static: st}
	}

	out := map[string]any{
		"bench":                       "static vs adaptive scheduler, serial Peach* engines, equal budget and seed",
		"go":                          runtime.Version(),
		"goarch":                      runtime.GOARCH,
		"execs":                       *execs,
		"seed":                        *seed,
		"results":                     results,
		"adaptive_edges_ge_static_on": fmt.Sprintf("%d of %d targets", adaptiveWins, len(names)),
		"sessions": map[string]any{
			"target":        "IEC104",
			"single_packet": singleRow.Static,
			"sequence":      seqRow,
		},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
