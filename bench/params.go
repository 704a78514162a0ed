package main

import "time"

// params are the frozen workload sizes. The full set was tuned on a 2-core
// host so one pass takes 0.5-1 s and a 10 s run holds 9-12 passes; the toy
// set keeps `go test ./bench` under ten seconds. A later PR compares
// against numbers measured with the full set, so changing a value here
// re-bases the benchmark (see README.md, "Re-basing").
type params struct {
	Name string `json:"name"` // "full" or "toy"

	// SetupRepeats is how many set-ups a run measures: its own, and the rest
	// in fresh processes, half before the timed passes and half after;
	// setup_s is their median.
	SetupRepeats int `json:"setup_repeats"`

	Halo      haloParams      `json:"halo_p2p"`
	Coll      collParams      `json:"coll_payload"`
	Scale     haloParams      `json:"scale_setup"`
	Reorder   reorderParams   `json:"reorder_loop"`
	TreeMatch treematchParams `json:"treematch_map"`
	Export    exportParams    `json:"epoch_export"`
	Probe     probeParams     `json:"probes"`
}

// haloParams shapes a monitored 2D halo skeleton on a GX x GX rank grid.
type haloParams struct {
	GX       int `json:"gx"`
	Iters    int `json:"iters_per_pass"`
	MsgBytes int `json:"msg_bytes"`
}

type collParams struct {
	Nodes          int `json:"nodes"` // PlaFRIM nodes of 24 cores, all used
	Rounds         int `json:"rounds_per_pass"`
	BcastBytes     int `json:"bcast_bytes"`
	AllreduceBytes int `json:"allreduce_bytes"`
	AlltoallBytes  int `json:"alltoall_bytes_per_peer"`
	ReduceBytes    int `json:"reduce_bytes"`
}

type reorderParams struct {
	Nodes       int           `json:"nodes"` // one allgather group per node's worth of ranks
	Iters       int           `json:"iters_per_phase"`
	Bytes       int           `json:"allgather_bytes"`
	MappingTime time.Duration `json:"fixed_mapping_ns"`
}

type treematchParams struct {
	Orders  []int `json:"orders"`
	Cluster int   `json:"cluster_size"`
}

type exportParams struct {
	GX       int `json:"gx"`
	Epochs   int `json:"epochs_per_pass"`
	Iters    int `json:"iters_per_epoch"`
	MsgBytes int `json:"msg_bytes"`
}

// probeParams sizes the layer probes of the traced run.
type probeParams struct {
	PingPongs  int `json:"pingpong_round_trips"`
	CollRounds int `json:"coll_rounds"`
	WorldNP    int `json:"newworld_np"`
	MonitorGX  int `json:"monitoring_gx"`
	HaloIters  int `json:"halo_event_iters"`
	FrameRows  int `json:"monsvc_frame_rows"`
	Frames     int `json:"monsvc_frames"`
	// MinOpTime is how long a direct-call micro probe loops before it
	// reports ns per call.
	MinOpTime time.Duration `json:"min_op_ns"`
}

var fullParams = params{
	Name:         "full",
	SetupRepeats: 5,
	Halo:         haloParams{GX: 48, Iters: 90, MsgBytes: 4096},
	Coll: collParams{Nodes: 2, Rounds: 60, BcastBytes: 64 << 10, AllreduceBytes: 8 << 10,
		AlltoallBytes: 1 << 10, ReduceBytes: 128 << 10},
	Scale:     haloParams{GX: 128, Iters: 3, MsgBytes: 4096},
	Reorder:   reorderParams{Nodes: 8, Iters: 100, Bytes: 200_000, MappingTime: 2 * time.Millisecond},
	TreeMatch: treematchParams{Orders: []int{16384, 32768, 65536}, Cluster: 32},
	Export:    exportParams{GX: 16, Epochs: 80, Iters: 4, MsgBytes: 4096},
	Probe: probeParams{PingPongs: 20000, CollRounds: 8, WorldNP: 16384, MonitorGX: 32,
		HaloIters: 20, FrameRows: 256, Frames: 64, MinOpTime: 20 * time.Millisecond},
}

var toyParams = params{
	Name:         "toy",
	SetupRepeats: 1,
	Halo:         haloParams{GX: 8, Iters: 4, MsgBytes: 4096},
	Coll: collParams{Nodes: 1, Rounds: 2, BcastBytes: 4 << 10, AllreduceBytes: 1 << 10,
		AlltoallBytes: 64, ReduceBytes: 70 << 10},
	Scale:     haloParams{GX: 8, Iters: 3, MsgBytes: 4096},
	Reorder:   reorderParams{Nodes: 2, Iters: 3, Bytes: 20_000, MappingTime: 2 * time.Millisecond},
	TreeMatch: treematchParams{Orders: []int{64, 128, 256}, Cluster: 8},
	Export:    exportParams{GX: 4, Epochs: 3, Iters: 2, MsgBytes: 4096},
	Probe: probeParams{PingPongs: 50, CollRounds: 1, WorldNP: 64, MonitorGX: 4,
		HaloIters: 2, FrameRows: 8, Frames: 2, MinOpTime: 100 * time.Microsecond},
}
