// dmactrace inspects DMac execution traces. It loads a Chrome trace_event
// JSON file written by `dmacrun -trace` (or any engine run with a tracer
// attached) and prints the per-stage timeline: wall time per stage, compute
// vs communication split, the dominant communication pattern, and the
// longest spans.
//
// Usage:
//
//	dmactrace -in trace.json
//	dmactrace -in trace.json -stages
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dmac/internal/obs"
)

func main() {
	in := flag.String("in", "", "Chrome trace JSON file to load")
	stagesOnly := flag.Bool("stages", false, "print only the per-stage table")
	flag.Parse()

	if *in == "" {
		fmt.Fprintln(os.Stderr, "dmactrace: need -in <trace.json>")
		flag.Usage()
		os.Exit(2)
	}
	if err := analyze(*in, *stagesOnly); err != nil {
		log.Fatal(err)
	}
}

// analyze loads a Chrome trace file and prints the timeline report.
func analyze(path string, stagesOnly bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadChromeTrace(f)
	if err != nil {
		return fmt.Errorf("dmactrace: %s: %w", path, err)
	}
	if len(events) == 0 {
		return fmt.Errorf("dmactrace: %s: trace holds no events", path)
	}
	spans := obs.EventsToSpans(events)
	if stagesOnly {
		obs.WriteStageTable(os.Stdout, spans)
		return nil
	}
	obs.WriteTimeline(os.Stdout, spans)
	return nil
}
