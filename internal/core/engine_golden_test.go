package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"s3asim/internal/des"
	"s3asim/internal/romio"
)

// This file pins the worker's virtual-time behavior on paths the kernel
// golden matrix (golden_test.go) does not reach: the MW sync-token wait,
// the initial database load, the query-segmentation re-read, hybrid query
// groups, the list-sync collective, sieved individual writes, serving runs
// (including WW-Coll's Gate-based run-ahead check), the in-run readback
// verifier (individual and collective), and the adaptive controller. Every
// hash and event count below was captured while a second, goroutine-backed
// worker engine still existed, and both engines produced exactly these
// values — so the goldens carry that cross-check forward.

// engineFingerprint is fingerprint extended with the observables serving,
// readback and adaptive runs add: per-query lifecycle stamps, the readback
// counters, and the adaptive controller report. A run with none of them
// hashes to exactly fingerprint(rep).
func engineFingerprint(rep *Report) string {
	var b strings.Builder
	if rep.Queries != nil {
		fmt.Fprintf(&b, "queries=%+v\n", rep.Queries)
	}
	if rep.ReadbackReads != 0 || rep.ReadbackExtents != 0 {
		fmt.Fprintf(&b, "readback reads=%d extents=%d bytes=%d mismatches=%d\n",
			rep.ReadbackReads, rep.ReadbackExtents, rep.ReadbackBytes, rep.ReadbackMismatches)
	}
	if rep.Adaptive != nil {
		fmt.Fprintf(&b, "adaptive=%+v\n", *rep.Adaptive)
	}
	fp := fingerprint(rep)
	if b.Len() == 0 {
		return fp
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fp+"\n"+b.String())))
}

// engineCase is one pinned worker run.
type engineCase struct {
	name   string
	config func() Config
	hash   string
	events uint64
}

// goldenVariant is goldenConfig with one mutation applied.
func goldenVariant(mutate func(c *Config)) func() Config {
	return func() Config {
		cfg := goldenConfig()
		mutate(&cfg)
		return cfg
	}
}

// serveCell is a query-synchronized serving run under strategy s.
func serveCell(s Strategy) func() Config {
	return func() Config {
		cfg := serveConfig(2 * des.Millisecond)
		cfg.Strategy = s
		cfg.QuerySync = true
		return cfg
	}
}

// readbackCell is an in-run + post-run readback run under strategy s,
// reading through list I/O or (coll) the collective read.
func readbackCell(s Strategy, coll bool) func() Config {
	return func() Config {
		cfg := readbackConfig(s, romio.ListIO)
		cfg.Readback.Collective = coll
		return cfg
	}
}

var engineCases = []engineCase{
	{name: "WW-List_sync", hash: "0fc6eedc777656b68774f857cdfcbdc03fe1e462df54ae6411206efef1e08e32", events: 19897,
		config: goldenVariant(func(c *Config) { c.Strategy = WWList; c.QuerySync = true })},
	{name: "MW_sync_token", hash: "e25ec2d7228e0e445e6a1cbce579eb3299129ee435f619c8759bc271be154737", events: 6200,
		config: goldenVariant(func(c *Config) { c.Strategy = MW; c.QuerySync = true })},
	{name: "WW-Coll_two-phase", hash: "1c072fd527ced4dc6f8b5573f3e0d8cb1483e469f26e8c6bb3455acd5d909279", events: 21307,
		config: goldenVariant(func(c *Config) { c.Strategy = WWColl })},
	{name: "WW-Coll_list-sync", hash: "f8f8080865fc791996664f526574cd968017ed3707bcd6be1c6a179afc5390fd", events: 20465,
		config: goldenVariant(func(c *Config) {
			c.Strategy = WWColl
			c.CollMethod = romio.ListSync
		})},
	{name: "WW-POSIX_db-load", hash: "6ecaf3381f7c4c147e7a66300809e3f76d92aabf178e54810985edb781efa326", events: 27328,
		config: goldenVariant(func(c *Config) {
			c.Strategy = WWPosix
			c.DatabaseBytes = 64 << 20
		})},
	{name: "MW_query-seg_reread", hash: "054fef83161676e88ab817af12886a790ed668714278d456c09ffb9c9879244e", events: 2878,
		config: goldenVariant(func(c *Config) {
			c.Strategy = MW
			c.Segmentation = QuerySeg
			c.DatabaseBytes = 1 << 20
			c.WorkerMemoryBytes = 512 << 10
		})},
	{name: "WW-List_query-groups", hash: "508a4877a0b6e99cc2e8aadec37f60ca71a50dacc3e0ecd7d3d139d1479b688e", events: 12585,
		config: goldenVariant(func(c *Config) { c.Strategy = WWList; c.QueryGroups = 2 })},
	{name: "WW-List_sieve", hash: "4c5940fdcaeccae8f8306ed61bfd4aed916b96b23db51d53c74ca7e9cd802357", events: 41432,
		config: goldenVariant(func(c *Config) {
			c.Strategy = WWList
			c.OverrideIndMethod = true
			c.IndMethod = romio.DataSieve
		})},
	{name: "serve_MW", hash: "d1dd4edac049e700abeb5c32a3e42a0ed4742f44774de9a70ad1cd3d7e758ad1", events: 1523,
		config: serveCell(MW)},
	{name: "serve_WW-POSIX", hash: "3b5c31bfcfff53dd49f9dc3d6910db6620e44580e5aed3e92e80fc055dd28b89", events: 3459,
		config: serveCell(WWPosix)},
	{name: "serve_WW-List", hash: "f0e759202dc6b6733b94587b964a156d32cbb6d0209d31df9622ebf3955fc4bb", events: 3210,
		config: serveCell(WWList)},
	{name: "serve_WW-Coll", hash: "47f5805910a8f24e46509362bd51cd5f10dd333819e973a2dbf19cf72161ad30", events: 3530,
		config: serveCell(WWColl)},
	{name: "readback_MW", hash: "53ae3aae7bcde255353cc1104d62cacc0475f49cb4956ba2d2f4313566c0db69", events: 787,
		config: readbackCell(MW, false)},
	{name: "readback_WW-POSIX", hash: "c8ff3eff4901e4434ce07bb6dc5877e52bce9d81e83e78de89d3967fcfcf0a82", events: 1709,
		config: readbackCell(WWPosix, false)},
	{name: "readback_WW-List", hash: "82116947e96f3ff90dd7aa1326ccaa20787b480a0ab019c8a7bfe102976af14f", events: 1560,
		config: readbackCell(WWList, false)},
	{name: "readback_WW-Coll", hash: "4b4c47d51bed257b33606cefb2b4a8e5af35be1bd1a403518475850cebf4cd4c", events: 1916,
		config: readbackCell(WWColl, false)},
	{name: "readback_WW-Coll_collective", hash: "5bc18764e28ae3a64f2c51c6287f1ebfc37846cdc00c926436632cbb0e957b3d", events: 2092,
		config: readbackCell(WWColl, true)},
	{name: "adaptive", hash: "ad7997b06bc41583b9eb7765677b9df594791596c32b3fb1c73bfb475168216c", events: 8209,
		config: adaptiveConfig},
}

// TestWorkerGoldenBehavior checks every engineCases run against its pinned
// fingerprint and calendar-event count.
func TestWorkerGoldenBehavior(t *testing.T) {
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			rep := mustRun(t, ec.config())
			if got := engineFingerprint(rep); got != ec.hash {
				t.Errorf("virtual-time fingerprint drifted:\n got %s\nwant %s", got, ec.hash)
			}
			if rep.Events != ec.events {
				t.Errorf("calendar events = %d, pinned %d", rep.Events, ec.events)
			}
		})
	}
}
