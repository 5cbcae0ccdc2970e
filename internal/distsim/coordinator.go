package distsim

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
)

// Coordinator owns a shard queue derived from a Placement and serves it to
// connecting workers over TCP. Each worker connection is a simple
// task/result loop; if a connection drops mid-task, the shard is re-queued
// for another worker, so the job completes as long as at least one worker
// keeps connecting.
type Coordinator struct {
	rows [][]int
	card []int

	listener net.Listener
	queue    chan Shard
	results  chan ShardStats

	mu        sync.Mutex
	remaining int
	collected []ShardStats

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // live worker connections, closed by Close

	done     chan struct{} // closed when all shards completed
	quit     chan struct{} // closed by Close to stop the accept loop
	quitOnce sync.Once     // guards quit/listener teardown against concurrent Close calls
	closeErr error         // listener close result, written once inside quitOnce
	wg       sync.WaitGroup
}

// NewCoordinator prepares a coordinator serving the placement's shards over
// the given data set rows. It refuses rows that do not fit the schema: every
// worker would refuse the shards that hold them, and Wait would block
// forever. It also refuses a shard naming an object outside the rows, which
// no worker connection could serve.
func NewCoordinator(rows [][]int, cardinalities []int, plan *Placement) (*Coordinator, error) {
	if plan == nil || len(plan.Shards) == 0 {
		return nil, errors.New("distsim: empty placement")
	}
	if err := checkRows(rows, cardinalities); err != nil {
		return nil, fmt.Errorf("distsim: %w", err)
	}
	for _, s := range plan.Shards {
		for _, i := range s.Objects {
			if i < 0 || i >= len(rows) {
				return nil, fmt.Errorf("distsim: shard %d object %d: outside rows [0, %d)", s.ID, i, len(rows))
			}
		}
	}
	c := &Coordinator{
		rows:      rows,
		card:      cardinalities,
		conns:     make(map[net.Conn]struct{}),
		queue:     make(chan Shard, len(plan.Shards)),
		results:   make(chan ShardStats, len(plan.Shards)),
		remaining: len(plan.Shards),
		done:      make(chan struct{}),
		quit:      make(chan struct{}),
	}
	for _, s := range plan.Shards {
		c.queue <- s
	}
	return c, nil
}

// Start begins listening on a loopback port and returns the address workers
// should dial.
func (c *Coordinator) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("distsim: listen: %w", err)
	}
	c.listener = ln
	c.wg.Add(2)
	go c.acceptLoop()
	go c.collectLoop()
	return ln.Addr().String(), nil
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.serveWorker(conn)
	}
}

func (c *Coordinator) collectLoop() {
	defer c.wg.Done()
	for {
		select {
		case st := <-c.results:
			c.mu.Lock()
			c.collected = append(c.collected, st)
			c.remaining--
			finished := c.remaining == 0
			c.mu.Unlock()
			if finished {
				close(c.done)
				return
			}
		case <-c.quit:
			return
		}
	}
}

// serveWorker runs the version handshake and then the task/result loop for
// one worker connection. A worker that fails the handshake is dropped before
// any shard is dispatched to it, so the job is unaffected.
func (c *Coordinator) serveWorker(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	// Track the connection so Close can unblock a serveWorker parked in a
	// Decode (e.g. a peer that connects and then stalls mid-handshake) —
	// gob reads have no deadline, so closing the conn is the only lever.
	c.connMu.Lock()
	c.conns[conn] = struct{}{}
	c.connMu.Unlock()
	defer func() {
		c.connMu.Lock()
		delete(c.conns, conn)
		c.connMu.Unlock()
	}()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(message{Kind: kindHello, Proto: ProtocolVersion}); err != nil {
		return
	}
	var hello message
	if err := dec.Decode(&hello); err != nil || hello.Kind != kindHello || hello.Proto != ProtocolVersion {
		// An unversioned (v1), mismatched, or broken worker build: drop the
		// connection before any shard reaches it. A mismatched worker reports
		// both versions on its side.
		return
	}
	sentCard := false
	for {
		var shard Shard
		select {
		case shard = <-c.queue:
		case <-c.done:
			_ = enc.Encode(message{Kind: kindDone})
			return
		case <-c.quit:
			_ = enc.Encode(message{Kind: kindDone})
			return
		}
		task := message{Kind: kindTask, ShardID: shard.ID}
		if !sentCard {
			// The schema rides only the connection's first task; the worker
			// caches it.
			task.Cardinalities = c.card
			sentCard = true
		}
		task.Rows = make([][]int, 0, len(shard.Objects))
		for _, i := range shard.Objects {
			task.Rows = append(task.Rows, c.rows[i])
		}
		if err := enc.Encode(task); err != nil {
			c.requeue(shard)
			return
		}
		var reply message
		if err := dec.Decode(&reply); err != nil || reply.Kind != kindResult || reply.Stats.ShardID != shard.ID {
			// Worker failed mid-task: give the shard to someone else.
			c.requeue(shard)
			return
		}
		select {
		case c.results <- reply.Stats:
		case <-c.quit:
			return
		}
	}
}

func (c *Coordinator) requeue(s Shard) {
	select {
	case c.queue <- s:
	default:
		// Queue capacity equals the shard count, so this cannot happen; the
		// guard only avoids a theoretical deadlock.
	}
}

// Wait blocks until every shard has been processed and returns the collected
// per-shard statistics (in completion order).
func (c *Coordinator) Wait() []ShardStats {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ShardStats, len(c.collected))
	copy(out, c.collected)
	return out
}

// Done exposes completion for select-based callers.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Close shuts the coordinator down and waits for its goroutines to exit.
// It is safe to call after Wait, to abort early, and to call concurrently or
// repeatedly: the whole teardown runs exactly once (a bare check-then-close
// of quit would panic when two callers raced past the check together, and
// re-closing the listener would fabricate a net.ErrClosed for the losers),
// and every caller returns the same result.
func (c *Coordinator) Close() error {
	c.quitOnce.Do(func() {
		close(c.quit)
		if c.listener != nil {
			c.closeErr = c.listener.Close()
		}
		// Unblock serveWorkers parked in gob reads on stalled peers; their
		// Decode fails and they exit, so the wg.Wait below cannot hang.
		c.connMu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.connMu.Unlock()
	})
	c.wg.Wait()
	return c.closeErr
}

// MergeStats combines per-shard statistics into fleet-wide per-feature
// histograms — the aggregation a central server performs after the
// distributed pass.
func MergeStats(stats []ShardStats, cardinalities []int) ([][]int, int) {
	freq := make([][]int, len(cardinalities))
	for r, m := range cardinalities {
		freq[r] = make([]int, m)
	}
	total := 0
	for _, st := range stats {
		total += st.Count
		for r := range st.Freq {
			for v, cnt := range st.Freq[r] {
				freq[r][v] += cnt
			}
		}
	}
	return freq, total
}
