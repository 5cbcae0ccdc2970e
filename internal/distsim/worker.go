package distsim

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
)

// Worker processes shards served by a Coordinator.
type Worker struct {
	// MaxShards, when positive, makes the worker exit (without error) after
	// processing that many shards — used by tests to exercise the
	// coordinator's failure-recovery path.
	MaxShards int
}

// Run connects to the coordinator at addr and processes tasks until the
// coordinator reports completion. It returns the number of shards processed.
func (w *Worker) Run(addr string) (int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("distsim: dial coordinator: %w", err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	// Version handshake: the coordinator speaks first, and both sides must
	// speak the same version before any shard moves.
	var hello message
	if err := dec.Decode(&hello); err != nil {
		return 0, fmt.Errorf("distsim: handshake: %w", err)
	}
	if hello.Kind != kindHello {
		return 0, fmt.Errorf("distsim: coordinator opened with frame kind %d, not a version handshake (unversioned v1 build?)", hello.Kind)
	}
	if hello.Proto != ProtocolVersion {
		return 0, fmt.Errorf("distsim: protocol version mismatch: coordinator speaks v%d, this worker speaks v%d — rebuild one side", hello.Proto, ProtocolVersion)
	}
	if err := enc.Encode(message{Kind: kindHello, Proto: ProtocolVersion}); err != nil {
		return 0, fmt.Errorf("distsim: handshake reply: %w", err)
	}
	processed := 0
	var card []int // schema cache; the coordinator sends it on the first task only
	for {
		var task message
		if err := dec.Decode(&task); err != nil {
			return processed, fmt.Errorf("distsim: receive task: %w", err)
		}
		switch task.Kind {
		case kindDone:
			return processed, nil
		case kindTask:
			if task.Cardinalities != nil {
				card = task.Cardinalities
			}
			if card == nil {
				return processed, errors.New("distsim: task frame arrived before any cardinalities")
			}
			if err := checkRows(task.Rows, card); err != nil {
				return processed, fmt.Errorf("distsim: shard %d: %w", task.ShardID, err)
			}
			stats := computeStats(task.ShardID, task.Rows, card)
			if err := enc.Encode(message{Kind: kindResult, Stats: stats}); err != nil {
				return processed, fmt.Errorf("distsim: send result: %w", err)
			}
			processed++
			if w.MaxShards > 0 && processed >= w.MaxShards {
				return processed, nil
			}
		default:
			return processed, fmt.Errorf("distsim: unexpected message kind %d", task.Kind)
		}
	}
}
