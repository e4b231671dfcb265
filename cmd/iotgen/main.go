// Command iotgen measures bare kvp generation speed, the Figure 8
// experiment: TPCx-IoT driver instances generating sensor readings with
// the output discarded (/dev/null in the paper).
//
// Usage:
//
//	iotgen -drivers 4 -kvps 200000      # measure THIS machine
//	iotgen -model                       # print the calibrated paper-host model
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"tpcxiot/internal/testbed"
	"tpcxiot/internal/workload"
	"tpcxiot/internal/ycsb"
)

// discardDB is the /dev/null binding: it accepts everything and stores
// nothing.
type discardDB struct{}

func (discardDB) Insert(key, value []byte) error        { return nil }
func (discardDB) Read(key []byte) ([]byte, bool, error) { return nil, false, nil }
func (discardDB) ScanIter(lo, hi []byte, n int) (ycsb.RowIter, error) {
	return ycsb.SliceIter(nil), nil
}
func (discardDB) Close() error { return nil }

func main() {
	var (
		drivers = flag.Int("drivers", 1, "driver instances to run")
		kvps    = flag.Int64("kvps", 500_000, "readings per driver instance")
		threads = flag.Int("threads", workload.DefaultThreads, "threads per driver")
		model   = flag.Bool("model", false, "print the calibrated paper driver-host model instead of measuring")
	)
	flag.Parse()

	if *model {
		p := testbed.DefaultHostGenParams()
		fmt.Printf("%8s %8s %16s %10s %8s\n", "drivers", "threads", "kvps/s", "cpu%", "sys%")
		for _, pt := range testbed.HostGenerationSweep(p) {
			fmt.Printf("%8d %8d %16.0f %9.1f%% %7.1f%%\n",
				pt.Drivers, pt.Threads, pt.ThroughputKVPs, pt.CPUUtilPct, pt.SystemPct)
		}
		return
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	total := int64(0)
	start := time.Now()
	for d := 0; d < *drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			inst, err := workload.NewInstance(workload.InstanceConfig{
				Substation:     workload.SubstationName(d),
				Readings:       *kvps,
				Threads:        *threads,
				Seed:           uint64(d) + 1,
				DisableQueries: true, // bare generation, no query reads
			})
			if err != nil {
				log.Fatal(err)
			}
			_, err = ycsb.Run(ycsb.RunConfig{Threads: *threads},
				func(int) (ycsb.DB, error) { return discardDB{}, nil }, inst)
			if err != nil {
				log.Fatal(err)
			}
			mu.Lock()
			total += inst.Stats().Inserted
			mu.Unlock()
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("drivers:    %d (%d threads each)\n", *drivers, *threads)
	fmt.Printf("generated:  %d kvps (%d per driver)\n", total, *kvps)
	fmt.Printf("elapsed:    %.2fs\n", elapsed.Seconds())
	fmt.Printf("throughput: %.0f kvps/s\n", float64(total)/elapsed.Seconds())
}
