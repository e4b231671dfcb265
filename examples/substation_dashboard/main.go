// Substation dashboard: the paper's motivating use case. Sensor data from a
// power substation streams into the gateway while a dashboard loop issues
// the four TPCx-IoT query templates — max, min, average and count over the
// last five seconds versus a historical window — and prints a live
// monitoring view for a few of the substation's instruments.
//
//	go run ./examples/substation_dashboard
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"tpcxiot/internal/hbase"
	"tpcxiot/internal/lsm"
	"tpcxiot/internal/wal"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

const substation = "substation-00042"

func main() {
	dir, err := os.MkdirTemp("", "tpcxiot-dashboard-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cluster, err := hbase.NewCluster(hbase.Config{
		Nodes:   3,
		DataDir: dir,
		Store:   lsm.Options{WALSync: wal.SyncNever},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.CreateTable("iot", nil); err != nil {
		log.Fatal(err)
	}

	// Background ingest: one driver instance streaming the substation's
	// 200 sensors into the gateway.
	inst, err := workload.NewInstance(workload.InstanceConfig{
		Substation:     substation,
		Readings:       300_000,
		Threads:        4,
		Seed:           42,
		DisableQueries: true, // this example issues its own dashboard queries
	})
	if err != nil {
		log.Fatal(err)
	}
	ingestDone := make(chan error, 1)
	go func() {
		_, err := ycsb.Run(ycsb.RunConfig{Threads: 4},
			workload.ClusterBinding(cluster, "iot", 64<<10), inst)
		ingestDone <- err
	}()

	// Dashboard loop: a separate client issuing the four query templates
	// against a few instruments while ingest continues.
	db, err := workload.ClusterBinding(cluster, "iot", 0)(0)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	watch := []string{"pmu-freq-000", "ltc-gas-000", "leakage-000", "xfmr-temp-000"}
	templates := []workload.QueryKind{
		workload.QueryMax, workload.QueryMin, workload.QueryAvg, workload.QueryCount,
	}

	fmt.Printf("dashboard for %s (Ctrl-C to stop early)\n\n", substation)
	for tick := 0; tick < 6; tick++ {
		time.Sleep(800 * time.Millisecond)
		now := time.Now()
		hist := now.Add(-30 * time.Second)
		fmt.Printf("--- %s | ingested %d readings ---\n",
			now.Format("15:04:05"), inst.Stats().Inserted)
		for i, sensor := range watch {
			res, err := workload.RunQuery(db, templates[i%len(templates)],
				substation, sensor, now, hist)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s %-16s recent: n=%4d avg=%9.2f  vs 30s ago: n=%4d  Δ=%+8.2f\n",
				sensor, res.Kind, res.Recent.Rows, res.Recent.Avg,
				res.Historical.Rows, res.Value())
		}
		fmt.Println()
	}

	// Let ingest finish and report totals.
	if err := <-ingestDone; err != nil {
		log.Fatal(err)
	}
	st := inst.Stats()
	fmt.Printf("ingest complete: %d readings from %d sensors\n", st.Inserted, 200)
}
