package ycsb

import (
	"fmt"
	"sync"

	"tpcxiot/internal/gen"
)

// CoreWorkload is a classic YCSB-style mixed workload over numbered records:
// a load phase of sequential inserts followed by a transaction phase mixing
// reads, inserts and short scans. TPCx-IoT replaces it with the sensor
// workload; it is retained because the framework is general and because it
// exercises the generator layer end to end.
type CoreWorkload struct {
	// RecordCount is the initially loaded key population.
	RecordCount int64
	// OperationCount is the number of transaction-phase ops per run
	// (divided across threads).
	OperationCount int64
	// ReadProportion, InsertProportion and ScanProportion must sum to ~1.
	ReadProportion   float64
	InsertProportion float64
	ScanProportion   float64
	// MaxScanLength bounds scan sizes. Defaults to 100.
	MaxScanLength int
	// Zipfian selects hot-spot key choice for reads; false = uniform.
	Zipfian bool
	// ValueSize is the payload size in bytes. Defaults to 100.
	ValueSize int
	// Seed makes runs reproducible.
	Seed uint64

	counterOnce   sync.Once
	insertCounter *gen.Counter
}

// CoreKey renders record ordinal n as its key.
func CoreKey(n int64) []byte {
	return []byte(fmt.Sprintf("user%019d", n))
}

// Load performs the load phase through db, inserting RecordCount records.
func (c *CoreWorkload) Load(db DB) error {
	rng := gen.NewRNG(c.Seed)
	val := make([]byte, c.valueSize())
	for i := int64(0); i < c.RecordCount; i++ {
		gen.Text(rng, val)
		if err := db.Insert(CoreKey(i), val); err != nil {
			return fmt.Errorf("ycsb: core load at %d: %w", i, err)
		}
	}
	return nil
}

func (c *CoreWorkload) valueSize() int {
	if c.ValueSize <= 0 {
		return 100
	}
	return c.ValueSize
}

// NewThread implements Workload.
func (c *CoreWorkload) NewThread(id, of int) ThreadWorkload {
	c.counterOnce.Do(func() {
		c.insertCounter = gen.NewCounter(c.RecordCount)
	})
	quota := c.OperationCount / int64(of)
	if int64(id) < c.OperationCount%int64(of) {
		quota++
	}
	rng := gen.NewRNG(c.Seed + uint64(id)*0x9e37 + 1)
	t := &coreThread{
		w:     c,
		rng:   rng,
		quota: quota,
		val:   make([]byte, c.valueSize()),
	}
	if c.RecordCount > 0 {
		if c.Zipfian {
			t.chooser = gen.NewZipfian(rng.Split(), c.RecordCount)
		} else {
			t.chooser = gen.NewUniform(rng.Split(), 0, c.RecordCount-1)
		}
	}
	t.opPicker = gen.NewDiscrete(rng.Split(),
		[]int64{int64(OpRead), int64(OpInsert), int64(OpScan)},
		[]float64{c.ReadProportion, c.InsertProportion, c.ScanProportion})
	return t
}

type coreThread struct {
	w        *CoreWorkload
	rng      *gen.RNG
	chooser  gen.IntGenerator
	opPicker *gen.Discrete
	quota    int64
	done     int64
	val      []byte
}

// Next implements ThreadWorkload.
func (t *coreThread) Next(db DB) (OpKind, bool, error) {
	if t.done >= t.quota {
		return 0, true, nil
	}
	t.done++
	switch OpKind(t.opPicker.Next()) {
	case OpInsert:
		n := t.w.insertCounter.Next()
		gen.Text(t.rng, t.val)
		return OpInsert, false, db.Insert(CoreKey(n), t.val)
	case OpScan:
		n := t.chooser.Next()
		maxLen := t.w.MaxScanLength
		if maxLen <= 0 {
			maxLen = 100
		}
		length := int(t.rng.Int63n(int64(maxLen))) + 1
		return OpScan, false, scanRows(db, CoreKey(n), length)
	default: // OpRead
		n := t.chooser.Next()
		_, _, err := db.Read(CoreKey(n))
		return OpRead, false, err
	}
}

// scanRows reads up to limit rows from key onward, as a YCSB scan does.
func scanRows(db DB, key []byte, limit int) error {
	it, err := db.ScanIter(key, nil, limit)
	if err != nil {
		return err
	}
	for {
		_, ok, err := it.Next()
		if err != nil || !ok {
			if cerr := it.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}
}
