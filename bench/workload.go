package main

import (
	"context"
	"time"
)

type reqKind int

const (
	frameAssign   reqKind = iota // client.WithBinary().AssignMany: pipelined binary frames
	jsonBatch                    // client.AssignBatch over JSON
	sessionAssign                // client.AssignSession over JSON
)

// servingSpec shapes one serving workload's traffic and fleet.
type servingSpec struct {
	kind      reqKind
	rows      int // rows per request
	backends  int
	replicate bool
	// rate is the open loop's fixed request rate, about a third of the
	// fleet's closed-loop capacity on the 2-vCPU reference VM, so that a
	// slower host does not push the loop near saturation (see README.md).
	rate float64
}

type workload struct {
	name    string
	serving *servingSpec // nil for train-paper
}

// workloads are chosen so that each layer an optimization may target has a
// workload that exercises it and one that bypasses it; README.md records
// the reasons in full.
var workloads = []*workload{
	// The read fast path: frame codec, gateway wire forward, packed assigner.
	// Never touches sessions, disk, or learning.
	{name: "stateless-frame", serving: &servingSpec{kind: frameAssign, rows: 64, backends: 2, rate: 900}},
	// The same layers through the JSON codec, the gateway's multi-group
	// scatter/gather, and the backend's AssignBatch fan-out.
	{name: "batch-json", serving: &servingSpec{kind: jsonBatch, rows: 256, backends: 2, rate: 100}},
	// The write path: stream.Add and its relearns, checkpoint-before-respond,
	// and a synchronous ship to the replica successor.
	{name: "session-replicated", serving: &servingSpec{kind: sessionAssign, rows: 1, backends: 3, replicate: true, rate: 350}},
	// The learning side: MGCPL levels, CAME, and snapshot build/save/load at
	// the scale of the paper's Table II.
	{name: "train-paper"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Inputs shared by the serving workloads. The served model is trained on
// mcdc.SyntheticDataset(modelName, trainN, features, clusters, seed); traffic
// rows are held-out draws from the same generator.
const (
	modelName     = "syn"
	trainN        = 2000
	features      = 16
	clusters      = 4
	poolN         = 4096 // distinct traffic rows
	sessionsInSet = 64
	sessionWindow = 256
	senders       = 2 // open-loop senders and closed-loop clients
	closedWindows = 5 // closed-loop accounting windows
	// openWindows splits the open loop, in due order, for p50_ms and p90_ms.
	// At -seconds 30 a window holds at least 150 requests, so its p90 has at
	// least 15 beyond.
	openWindows = 10
)

func runWorkload(ctx context.Context, opt options, w *workload) (*result, error) {
	var res *result
	var err error
	if w.serving != nil {
		res, err = runServing(ctx, opt, w)
	} else {
		res, err = runTrainPaper(ctx, opt)
	}
	if err != nil {
		return nil, err
	}
	if !opt.trace {
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		res.set("peak_rss_mb", float64(rss)/(1<<20))
	}
	return res, nil
}

// phaseSeconds splits a serving run's measured time: a tenth of warm-up, half
// open loop, and the rest closed loop.
func phaseSeconds(seconds int) (warm, open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	return total / 10, total / 2, total * 2 / 5
}
