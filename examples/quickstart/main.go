// Quickstart: fuzz the libmodbus target with Peach* for a fixed execution
// budget, watching the campaign's typed event stream, and print what it
// found.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/peachstar"
)

func main() {
	// Pick one of the six built-in ICS protocol targets.
	target, err := peachstar.NewTarget("libmodbus")
	if err != nil {
		log.Fatal(err)
	}

	// A campaign is fully reproducible under a fixed seed.
	campaign, err := peachstar.NewCampaign(peachstar.Options{
		Target:   target,
		Strategy: peachstar.PeachStar,
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Start one session for the whole budget. The returned Run is a live
	// handle: its event stream reports progress, new coverage and crashes
	// as they happen, and closes when the budget is spent — so ranging
	// over it doubles as the wait. (run.Wait() alone would do the same
	// without the live view; ctx cancellation or run.Stop() would end the
	// session early.)
	run, err := campaign.Start(context.Background(), peachstar.RunConfig{
		Execs:      40000,
		StatsEvery: 10000,
	})
	if err != nil {
		log.Fatal(err)
	}
	for ev := range run.Events() {
		switch ev := ev.(type) {
		case peachstar.StatsEvent:
			s := ev.Stats
			fmt.Printf("execs %6d: %3d paths, %3d edges, %d unique crashes, %4d puzzles\n",
				s.Execs, s.Paths, s.Edges, s.UniqueCrashes, s.CorpusPuzzles)
		case peachstar.CrashEvent:
			fmt.Printf("crash found: %s in %s\n", ev.Record.Kind, ev.Record.Site)
		}
	}
	if err := run.Wait(); err != nil {
		log.Fatal(err)
	}

	// Report unique faults, ASan-style.
	for _, c := range campaign.Crashes() {
		fmt.Printf("\n%s in %s\n", c.Kind, c.Site)
		fmt.Printf("  first triggered at execution %d, hit %d times\n", c.FirstExec, c.Count)
		fmt.Printf("  reproducer packet: %x\n", c.Example)
	}
	if len(campaign.Crashes()) == 0 {
		fmt.Println("\nno crashes at this budget — raise it or try another seed")
	}
}
