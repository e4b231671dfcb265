// Package hbase implements a miniature HBase-style cluster: the System
// Under Test of the live TPCx-IoT benchmark.
//
// The cluster consists of N region servers, each hosting key-range regions
// backed by the LSM engine (WAL + memstore + store files). A table's
// keyspace is pre-split into regions; each region is replicated three ways
// across distinct servers through a synchronous pipeline, which is what the
// benchmark driver's data-replication prerequisite check verifies. Clients
// buffer writes per region server (hbase.client.write.buffer) and flush
// them as batched RPCs; every server bounds concurrent request processing
// with a handler pool (hbase.regionserver.handler.count).
//
// The cluster runs in-process: an RPC is a handler-gated method call. The
// companion testbed package models the paper's physical clusters instead;
// this package is the real, durable engine used by the CLI, the examples,
// and laptop-scale shape checks.
package hbase

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tpcxiot/internal/lsm"
	"tpcxiot/internal/region"
	"tpcxiot/internal/replication"
	"tpcxiot/internal/telemetry"
)

// Sentinel errors.
var (
	ErrBadConfig     = errors.New("hbase: invalid configuration")
	ErrTableExists   = errors.New("hbase: table already exists")
	ErrNoSuchTable   = errors.New("hbase: no such table")
	ErrClusterClosed = errors.New("hbase: cluster is closed")
	ErrBadSplits     = errors.New("hbase: split keys not strictly ascending")
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of region servers. Must be at least
	// ReplicationFactor. The paper evaluates 2, 4 and 8 nodes (with the
	// 2-node minimum imposed by replication in the real kit; our in-process
	// replicas are stores, so the factor bounds Nodes here too).
	Nodes int
	// ReplicationFactor is the synchronous copy count. Defaults to 3.
	ReplicationFactor int
	// HandlerCount bounds concurrently executing requests per server
	// (hbase.regionserver.handler.count). Defaults to 32.
	HandlerCount int
	// QuorumAcks is how many replication members (always including the
	// primary) must durably apply a write before it is acknowledged.
	// 0 selects the majority, ⌈(factor+1)/2⌉; set it to
	// ReplicationFactor for the legacy full-fan-out ack.
	QuorumAcks int
	// CatchUpQueue bounds each member's straggler catch-up queue in
	// batches; a full queue sheds writes with ErrOverloaded. Defaults to
	// replication.DefaultMaxQueue.
	CatchUpQueue int
	// ShedWatermark is how many mutate requests may queue for a handler
	// slot per server before further mutates are shed with ErrOverloaded.
	// 0 selects 4×HandlerCount; negative disables shedding (mutates block,
	// the pre-admission-control behavior). Reads never shed.
	ShedWatermark int
	// RetryMax is how many times a client retries a shed mutate before
	// surfacing ErrOverloaded. 0 selects 5; negative disables retries.
	RetryMax int
	// RetryBaseDelay seeds the client's capped exponential backoff with
	// jitter (doubling per attempt, floored at the server's retry-after
	// hint). Defaults to 1ms.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff. Defaults to 100ms.
	RetryMaxDelay time.Duration
	// MemberWrapper, when non-nil, wraps each replication pipeline member
	// as the group is built — the fault-injection hook saturation
	// benchmarks and straggler tests use to slow or block one replica.
	// memberIdx 0 is the primary.
	MemberWrapper func(regionName string, memberIdx int, app replication.Applier) replication.Applier
	// ScannerLeaseTimeout bounds how long an idle scanner session survives
	// between next calls before the server reclaims it
	// (hbase.client.scanner.timeout.period). Defaults to 60s.
	ScannerLeaseTimeout time.Duration
	// DataDir is the root directory for all stores. Required.
	DataDir string
	// Store is the per-region LSM configuration (Dir is set internally).
	Store lsm.Options
	// Registry, when non-nil, collects cluster-wide telemetry: it is handed
	// to every region's LSM store (and through it the WAL), to replication
	// groups ("replication.acks") and to clients ("hbase.buffer_flushes",
	// "put.client_flush").
	Registry *telemetry.Registry
	// Tracer, when non-nil, samples client operations into distributed
	// traces: each sampled Put/Get/scan chunk yields one span tree covering
	// client, RPC, server, region, LSM, WAL and replication work. Nil
	// disables tracing entirely (zero per-op cost).
	Tracer *telemetry.Tracer
	// Logger, when non-nil, receives structured events from every region's
	// engine (WAL replay warnings, flush/compaction failures). It is copied
	// into Store.Logger unless one is already set.
	Logger *telemetry.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.DataDir == "" {
		return c, fmt.Errorf("%w: DataDir is required", ErrBadConfig)
	}
	if c.ReplicationFactor == 0 {
		c.ReplicationFactor = replication.DefaultFactor
	}
	if c.ReplicationFactor < 1 {
		return c, fmt.Errorf("%w: replication factor %d", ErrBadConfig, c.ReplicationFactor)
	}
	if c.Nodes <= 0 {
		c.Nodes = c.ReplicationFactor
	}
	if c.Nodes < c.ReplicationFactor {
		return c, fmt.Errorf("%w: %d nodes cannot hold %d replicas",
			ErrBadConfig, c.Nodes, c.ReplicationFactor)
	}
	if c.HandlerCount <= 0 {
		c.HandlerCount = 32
	}
	if c.QuorumAcks == 0 {
		c.QuorumAcks = replication.MajorityQuorum(c.ReplicationFactor)
	}
	if c.QuorumAcks < 1 || c.QuorumAcks > c.ReplicationFactor {
		return c, fmt.Errorf("%w: quorum %d with replication factor %d",
			ErrBadConfig, c.QuorumAcks, c.ReplicationFactor)
	}
	if c.CatchUpQueue <= 0 {
		c.CatchUpQueue = replication.DefaultMaxQueue
	}
	if c.ShedWatermark == 0 {
		c.ShedWatermark = 4 * c.HandlerCount
	}
	if c.RetryMax == 0 {
		c.RetryMax = 5
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 100 * time.Millisecond
	}
	if c.ScannerLeaseTimeout <= 0 {
		c.ScannerLeaseTimeout = 60 * time.Second
	}
	if c.Store.Registry == nil {
		c.Store.Registry = c.Registry
	}
	if c.Store.Logger == nil {
		c.Store.Logger = c.Logger
	}
	return c, nil
}

// Cluster is the SUT: a set of region servers plus the master metadata.
type Cluster struct {
	cfg Config

	mu      sync.RWMutex
	servers []*RegionServer
	tables  map[string]*Table
	tcp     *tcpState
	closed  bool
}

// Table is the cluster-side routing state for one table.
type Table struct {
	name    string
	splits  [][]byte       // region boundaries, ascending; len = len(regions)-1
	regions []*tableRegion // ordered by key range
}

// tableRegion binds a key range to its primary server and replication group.
type tableRegion struct {
	info    region.Info
	primary *RegionServer
	group   *replication.Group
	// replicas holds every hosted copy (primary first) for teardown.
	replicas []*region.Region
}

// NewCluster starts an in-process cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("hbase: create data dir: %w", err)
	}
	cl := &Cluster{cfg: c, tables: make(map[string]*Table)}
	for i := 0; i < c.Nodes; i++ {
		cl.servers = append(cl.servers, newRegionServer(i,
			filepath.Join(c.DataDir, fmt.Sprintf("node-%02d", i)),
			c.HandlerCount, c.ShedWatermark, c.ScannerLeaseTimeout, c.Registry))
	}
	if c.Registry != nil {
		// Live pipeline gauges: the deepest straggler catch-up queue and the
		// worst member lag behind the quorum watermark, across every region.
		c.Registry.Gauge("replication.catchup_depth", func() int64 {
			var max int64
			for _, g := range cl.groups() {
				if d := int64(g.MaxQueueDepth()); d > max {
					max = d
				}
			}
			return max
		})
		c.Registry.Gauge("replication.quorum_lag", func() int64 {
			var max int64
			for _, g := range cl.groups() {
				if l := int64(g.QuorumLag()); l > max {
					max = l
				}
			}
			return max
		})
	}
	return cl, nil
}

// NodeCount returns the number of region servers.
func (cl *Cluster) NodeCount() int { return cl.cfg.Nodes }

// ReplicationFactor returns the configured synchronous copy count. The
// benchmark driver's prerequisite check calls this.
func (cl *Cluster) ReplicationFactor() int { return cl.cfg.ReplicationFactor }

// Servers returns the region servers, for stats collection.
func (cl *Cluster) Servers() []*RegionServer {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return append([]*RegionServer(nil), cl.servers...)
}

// CreateTable creates a table pre-split at the given keys. With k split
// keys the table has k+1 regions; nil splits yield a single region. Regions
// are assigned round-robin with chained replica placement.
func (cl *Cluster) CreateTable(name string, splits [][]byte) (*Table, error) {
	for i := 1; i < len(splits); i++ {
		if bytes.Compare(splits[i-1], splits[i]) >= 0 {
			return nil, fmt.Errorf("%w: %q then %q", ErrBadSplits, splits[i-1], splits[i])
		}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil, ErrClusterClosed
	}
	if _, ok := cl.tables[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}

	t := &Table{name: name}
	for _, s := range splits {
		t.splits = append(t.splits, append([]byte(nil), s...))
	}

	nRegions := len(splits) + 1
	for i := 0; i < nRegions; i++ {
		info := region.Info{
			Table: name,
			Name:  fmt.Sprintf("%s,%05d", name, i),
		}
		if i > 0 {
			info.StartKey = t.splits[i-1]
		}
		if i < len(t.splits) {
			info.EndKey = t.splits[i]
		}
		placement, err := replication.Placement(i, cl.cfg.Nodes, cl.cfg.ReplicationFactor)
		if err != nil {
			cl.destroyTableLocked(t)
			return nil, err
		}
		tr := &tableRegion{info: info, primary: cl.servers[placement[0]]}
		var appliers []replication.Applier
		for _, nodeIdx := range placement {
			srv := cl.servers[nodeIdx]
			r, err := srv.openRegion(info, cl.cfg.Store)
			if err != nil {
				cl.destroyTableLocked(t)
				return nil, err
			}
			tr.replicas = append(tr.replicas, r)
			// The region (not its bare store) is the pipeline member, so
			// every replica bounds-checks what it applies — one pass per
			// batch on the batched path.
			appliers = append(appliers, r)
		}
		tr.group = cl.newGroup(info.Name, appliers)
		t.regions = append(t.regions, tr)
	}
	cl.tables[name] = t
	return t, nil
}

// newGroup builds one region's replication pipeline from the cluster
// config: quorum and queue bound from Config, the fault-injection wrapper
// applied per member, and the group's instruments resolved.
func (cl *Cluster) newGroup(regionName string, appliers []replication.Applier) *replication.Group {
	if w := cl.cfg.MemberWrapper; w != nil {
		wrapped := make([]replication.Applier, len(appliers))
		for i, app := range appliers {
			wrapped[i] = w(regionName, i, app)
		}
		appliers = wrapped
	}
	g := replication.NewGroupOptions(replication.Options{
		Quorum:   cl.cfg.QuorumAcks,
		MaxQueue: cl.cfg.CatchUpQueue,
	}, appliers[0], appliers[1:]...)
	g.Instrument(cl.cfg.Registry)
	return g
}

// groups snapshots every live replication group with its region name.
func (cl *Cluster) groups() map[string]*replication.Group {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	out := make(map[string]*replication.Group)
	for _, t := range cl.tables {
		for _, tr := range t.regions {
			out[tr.info.Name] = tr.group
		}
	}
	return out
}

// Quiesce blocks until every region's stragglers have caught up (all
// catch-up queues drained) — the settle point for tests, benchmarks, and
// teardown that must observe fully converged replicas.
func (cl *Cluster) Quiesce() error {
	var firstErr error
	for _, g := range cl.groups() {
		if err := g.Quiesce(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Table returns routing state for an existing table.
func (cl *Cluster) Table(name string) (*Table, error) {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	if cl.closed {
		return nil, ErrClusterClosed
	}
	t, ok := cl.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// DropTable destroys a table and all replica data. This is the "purge all
// ingested data" step of the benchmark's system cleanup.
func (cl *Cluster) DropTable(name string) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return ErrClusterClosed
	}
	t, ok := cl.tables[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	delete(cl.tables, name)
	return cl.destroyTableLocked(t)
}

func (cl *Cluster) destroyTableLocked(t *Table) error {
	var firstErr error
	for _, tr := range t.regions {
		// Stop the pipeline first: stragglers drain (or are abandoned on a
		// dead member) before the stores go away underneath them.
		if tr.group != nil {
			tr.group.Close()
		}
		for _, r := range tr.replicas {
			if err := r.Destroy(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		for _, srv := range cl.servers {
			srv.forgetRegion(tr.info.Name)
		}
	}
	return firstErr
}

// Close shuts down every region on every server.
func (cl *Cluster) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed {
		return nil
	}
	cl.closed = true
	cl.stopTCPLocked()
	var firstErr error
	for _, t := range cl.tables {
		for _, tr := range t.regions {
			// Drain each pipeline before closing its stores: quorum-acked
			// batches still in a straggler's catch-up queue reach disk, so a
			// clean shutdown leaves every replica converged.
			if tr.group != nil {
				if err := tr.group.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			for _, r := range tr.replicas {
				if err := r.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// RegionCount returns the number of regions in the table.
func (t *Table) RegionCount() int { return len(t.regions) }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// locate returns the region whose range contains key.
func (t *Table) locate(key []byte) *tableRegion {
	// First split greater than key identifies the region index.
	idx := sort.Search(len(t.splits), func(i int) bool {
		return bytes.Compare(key, t.splits[i]) < 0
	})
	return t.regions[idx]
}

// RegionFor reports the region name covering key, for observability.
func (t *Table) RegionFor(key []byte) string { return t.locate(key).info.Name }
