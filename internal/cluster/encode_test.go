package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/client"
)

// checkEncodeMatchesMarshal pins encodeBatch and encodeFill to
// json.Marshal on req and on each of its jobs, and pins the routing
// key to the cache fields: blanking name, debug, omit_cubes,
// timeout_ms and priority everywhere must not move it.
func checkEncodeMatchesMarshal(t *testing.T, req client.BatchRequest) {
	t.Helper()
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, key := encodeBatch(req)
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeBatch:\n got %q\nwant %q", got, want)
	}
	for k, j := range req.Jobs {
		want, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := encodeFill(j); !bytes.Equal(got, want) {
			t.Fatalf("encodeFill(job %d):\n got %q\nwant %q", k, got, want)
		}
	}
	bare := client.BatchRequest{}
	if req.Jobs != nil {
		bare.Jobs = make([]client.FillRequest, len(req.Jobs))
	}
	for k, j := range req.Jobs {
		bare.Jobs[k] = client.FillRequest{Cubes: j.Cubes, STIL: j.STIL, Orderer: j.Orderer, Filler: j.Filler, Seed: j.Seed}
	}
	if _, bareKey := encodeBatch(bare); bareKey != key {
		t.Fatalf("key %#x moved to %#x once name, debug, omit_cubes, timeout_ms and priority were blanked", key, bareKey)
	}
	if key == 0 {
		t.Fatal("key 0 means no affinity")
	}
}

func TestEncodeMatchesMarshal(t *testing.T) {
	full := client.FillRequest{
		Name: "job-1", Cubes: []string{"0X1", "1X0"}, STIL: "STIL 1.0;",
		Orderer: "i", Filler: "mt", Seed: -42, Priority: -3, TimeoutMillis: 1500,
		OmitCubes: true, Debug: true,
	}
	cases := []client.BatchRequest{
		{},
		{Jobs: []client.FillRequest{}},
		{Jobs: []client.FillRequest{{}}, Debug: true},
		{Jobs: []client.FillRequest{full, {Cubes: []string{}}, {Cubes: []string{""}}}},
		{Jobs: []client.FillRequest{{Cubes: []string{"01 X", "größe"}, Name: "\xff\xfe"}}},
		{Jobs: []client.FillRequest{{STIL: "STIL 1.0;\nPattern p { V { all = 01N; } }", Seed: 1 << 62}}},
		randomBatch(5),
	}
	for _, req := range cases {
		checkEncodeMatchesMarshal(t, req)
	}
	// Every byte value at every offset of a word, and in a tail under
	// eight bytes, of a cube and of a name.
	for b := 0; b < 256; b++ {
		for off := 0; off < 12; off++ {
			s := []byte(strings.Repeat("X", 12))
			s[off] = byte(b)
			checkEncodeMatchesMarshal(t, client.BatchRequest{Jobs: []client.FillRequest{{Cubes: []string{string(s)}}}})
			checkEncodeMatchesMarshal(t, client.BatchRequest{Jobs: []client.FillRequest{{Name: string(s), Cubes: []string{"01"}}}})
		}
	}
}

// FuzzEncodeBatch pins the shard encoder to json.Marshal, the oracle,
// on fuzzed batches, and the routing key to the cache fields.
func FuzzEncodeBatch(f *testing.F) {
	f.Add("job-1", "0X1X0X1X0", "1X0", "", "i", "dp", int64(7), 3, int64(1500), uint8(0x0f))
	f.Add("<a&b>", "0\"1\\X", "\x1f\x7f", "STIL 1.0;\n", "tool", "", int64(-1), -5, int64(-9), uint8(0x30))
	f.Add(" ", "\xff\xfe01", "größe", "\t", "", "mt", int64(0), 0, int64(0), uint8(0xc2))
	f.Add("", "", "", "", "", "", int64(0), 0, int64(0), uint8(0x41))
	f.Fuzz(func(t *testing.T, name, c1, c2, stil, orderer, filler string, seed int64, priority int, timeout int64, flags uint8) {
		job := client.FillRequest{
			Name: name, STIL: stil, Orderer: orderer, Filler: filler,
			Seed: seed, Priority: priority, TimeoutMillis: timeout,
			OmitCubes: flags&0x04 != 0, Debug: flags&0x08 != 0,
		}
		switch flags & 0x03 {
		case 1:
			job.Cubes = []string{}
		case 2:
			job.Cubes = []string{c1}
		case 3:
			job.Cubes = []string{c1, c2}
		}
		req := client.BatchRequest{Debug: flags&0x20 != 0}
		switch {
		case flags&0x40 != 0:
			// Jobs stays nil: json.Marshal writes null.
		case flags&0x80 != 0:
			req.Jobs = []client.FillRequest{}
		default:
			req.Jobs = []client.FillRequest{job}
		}
		if flags&0x10 != 0 {
			req.Jobs = append(req.Jobs, client.FillRequest{Name: c2, Cubes: []string{name, stil}, Seed: -seed, Debug: !job.Debug})
		}
		checkEncodeMatchesMarshal(t, req)
	})
}

// TestShardKeyFollowsCacheFields: the routing key is a function of
// the fields the worker's result cache keys on. It ignores name,
// debug, omit_cubes, timeout_ms and priority, and moves when one cube
// byte, the orderer, the filler, the seed or the job order moves.
func TestShardKeyFollowsCacheFields(t *testing.T) {
	const width = 21 // two words and a five-byte tail
	base := func() client.BatchRequest {
		return client.BatchRequest{Jobs: []client.FillRequest{
			{Cubes: []string{strings.Repeat("0X1", width/3), strings.Repeat("X", width)}, Orderer: "tool", Filler: "dp", Seed: 1},
			{Cubes: []string{strings.Repeat("1", width)}, Orderer: "i", Filler: "dp", Seed: 1},
		}}
	}
	key := func(req client.BatchRequest) uint64 {
		_, k := encodeBatch(req)
		return k
	}
	want := key(base())

	same := map[string]func(*client.BatchRequest){
		"name":       func(r *client.BatchRequest) { r.Jobs[0].Name = "renamed" },
		"debug":      func(r *client.BatchRequest) { r.Debug = true; r.Jobs[1].Debug = true },
		"omit_cubes": func(r *client.BatchRequest) { r.Jobs[0].OmitCubes = true },
		"timeout_ms": func(r *client.BatchRequest) { r.Jobs[1].TimeoutMillis = 5000 },
		"priority":   func(r *client.BatchRequest) { r.Jobs[0].Priority = 9 },
	}
	for field, edit := range same {
		req := base()
		edit(&req)
		if got := key(req); got != want {
			t.Errorf("changing %s moved the key %#x -> %#x", field, want, got)
		}
	}

	moved := map[string]func(*client.BatchRequest){
		"orderer":   func(r *client.BatchRequest) { r.Jobs[0].Orderer = "xstat" },
		"filler":    func(r *client.BatchRequest) { r.Jobs[1].Filler = "mt" },
		"seed":      func(r *client.BatchRequest) { r.Jobs[0].Seed = 2 },
		"job order": func(r *client.BatchRequest) { r.Jobs[0], r.Jobs[1] = r.Jobs[1], r.Jobs[0] },
		"cube split": func(r *client.BatchRequest) {
			c := r.Jobs[0].Cubes
			r.Jobs[0].Cubes = []string{c[0] + c[1][:3], c[1][3:]}
		},
		"cubes to stil": func(r *client.BatchRequest) {
			r.Jobs[1].STIL, r.Jobs[1].Cubes = r.Jobs[1].Cubes[0], nil
		},
	}
	for off := 0; off < width; off++ {
		moved[fmt.Sprintf("cube byte %d", off)] = func(r *client.BatchRequest) {
			c := []byte(r.Jobs[0].Cubes[1])
			c[off] = '0'
			r.Jobs[0].Cubes[1] = string(c)
		}
	}
	for what, edit := range moved {
		req := base()
		edit(&req)
		if got := key(req); got == want {
			t.Errorf("changing the %s left the key at %#x", what, want)
		}
	}

	// A fill keys like the one-job shard of the same job.
	one := base().Jobs[:1]
	if _, fk := encodeFill(one[0]); fk != key(client.BatchRequest{Jobs: one}) {
		t.Error("a fill and its one-job shard key apart")
	}
}

// shardForBench is a coord-batch-shaped 16-job shard: 64–192 pins ×
// 100–400 vectors at 75–90% X, tool and i orders, DP-fill, omit_cubes.
func shardForBench() client.BatchRequest {
	r := rand.New(rand.NewSource(1))
	req := client.BatchRequest{Jobs: make([]client.FillRequest, 16)}
	for k := range req.Jobs {
		width, rows := 64+r.Intn(129), 100+r.Intn(301)
		xp := 0.75 + 0.15*r.Float64()
		cubes := make([]string, rows)
		row := make([]byte, width)
		for i := range cubes {
			for c := range row {
				switch {
				case r.Float64() < xp:
					row[c] = 'X'
				case r.Intn(2) == 0:
					row[c] = '0'
				default:
					row[c] = '1'
				}
			}
			cubes[i] = string(row)
		}
		ord := "tool"
		if k%4 == 3 {
			ord = "i"
		}
		req.Jobs[k] = client.FillRequest{Cubes: cubes, Orderer: ord, Filler: "dp", OmitCubes: true}
	}
	return req
}

// BenchmarkShardEncode encodes and keys one coord-batch-shaped shard.
// The marshal+fnv row is the cost it replaces: json.Marshal for the
// routing key, an FNV-1a byte loop over it, and json.Marshal again for
// the body.
func BenchmarkShardEncode(b *testing.B) {
	sub := shardForBench()
	want, err := json.Marshal(sub)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if body, _ := encodeBatch(sub); len(body) != len(want) {
				b.Fatalf("encoded %d bytes, want %d", len(body), len(want))
			}
		}
	})
	b.Run("marshal+fnv", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, _ := json.Marshal(sub)
			h := uint64(14695981039346656037)
			for _, c := range data {
				h ^= uint64(c)
				h *= 1099511628211
			}
			if body, _ := json.Marshal(sub); len(body) != len(want) || h == 0 {
				b.Fatalf("encoded %d bytes, want %d", len(body), len(want))
			}
		}
	})
}
