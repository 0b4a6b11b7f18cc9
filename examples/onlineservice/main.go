// Onlineservice: the always-on operating mode through the public facade.
// A multi-query workload streams through the online monitor while a SAN
// misconfiguration degrades one query mid-timeline; detected slowdowns
// fan out to the concurrent diagnosis service, and the ranked incident
// registry names the root cause — no administrator labeling anything.
package main

import (
	"context"
	"fmt"
	"log"

	"diads"
)

func main() {
	// The prebuilt scenario wires everything: monitor on the engine's
	// run-completion hook, worker-pool service, chunked streaming.
	res, err := diads.RunOnlineScenario(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Render())

	// The same wiring by hand, for custom workloads: build a testbed,
	// attach a monitor, start a service, and stream.
	tb, err := diads.NewTestbed(7)
	if err != nil {
		log.Fatal(err)
	}
	mon := diads.NewMonitor(diads.MonitorConfig{})
	tb.Engine.OnRunComplete = mon.Observe

	svc := diads.NewService(diads.ServiceEnvFromTestbed(tb), diads.ServiceConfig{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.Start(ctx)

	err = tb.SimulateStream(30*60, func(now diads.SimTime) error {
		// The monitor holds each detection until the emitted metrics
		// cover its evidence window; now is that watermark.
		return svc.SubmitAll(mon.Release(now))
	})
	if err != nil {
		log.Fatal(err)
	}
	svc.Wait()
	svc.Stop()
	fmt.Printf("steady workload: %d events, %d incidents (expected none)\n",
		mon.Stats().Events, svc.Registry().Len())
}
