// Latency example: reproduce Fig 2's comparison on a reduced scale and show
// why BP latency varies — trace the Maceió→Durban path across the simulated
// day (Fig 3) and watch it detour through North-Atlantic aircraft when the
// South Atlantic has none.
//
//	go run ./examples/latency
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"leosim"
)

func main() {
	// Ctrl-C cancels cooperatively; RunLatency then returns the completed
	// snapshots with res.Partial set.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	scale := leosim.ReducedScale()
	scale.NumSnapshots = 8 // keep the example snappy
	sim, err := leosim.NewSim(leosim.Starlink, scale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sim)

	fmt.Println("\n--- Fig 2: latency and its variability ---")
	res, err := leosim.RunLatency(ctx, sim)
	if res == nil {
		log.Fatal(err)
	}
	leosim.WriteLatencyReport(os.Stdout, res, 0)
	if res.Partial {
		fmt.Printf("(interrupted after %d snapshots)\n", res.SnapshotsDone)
		return
	}

	fmt.Println("\n--- Fig 3: Maceió → Durban under BP ---")
	trace, err := leosim.RunPathTrace(ctx, sim, "Maceió", "Durban", leosim.BP)
	if err != nil {
		log.Fatal(err)
	}
	for _, tr := range trace.Traces {
		if !tr.Reachable {
			fmt.Printf("%s  unreachable\n", tr.Time.Format("15:04"))
			continue
		}
		fmt.Printf("%s  rtt=%6.1f ms  hops=%2d  aircraft=%d\n",
			tr.Time.Format("15:04"), tr.RTTMs, tr.Hops, tr.AircraftHops)
	}
	fmt.Printf("\nRTT inflation across the day: %.1f ms (the paper reports ≈100 ms)\n",
		trace.RTTInflationMs())
}
