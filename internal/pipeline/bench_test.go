package pipeline

import (
	"context"
	"testing"
)

// The pipeline benchmarks feed the BENCH_*.json trajectory: the full
// netlist→ATPG→fill→power loop on catalog circuits, unsharded and
// fault-sharded.

func benchRun(b *testing.B, req Request) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), req, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineB06(b *testing.B) {
	benchRun(b, Request{Spec: "b06"})
}

func BenchmarkPipelineB09Scaled(b *testing.B) {
	benchRun(b, Request{Spec: "b09@0.5"})
}

func BenchmarkPipelineSharded4(b *testing.B) {
	benchRun(b, Request{Spec: "b06", ATPG: ATPGConfig{Shards: 4}})
}
