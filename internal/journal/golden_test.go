package journal

import (
	"encoding/json"
	"testing"

	"mdrep/internal/core"
	"mdrep/internal/peer"
)

// Snapshots written by an earlier binary, with download ledgers of
// several entries per uploader. A snapshot must decode, restore and
// re-encode to the same bytes, so a change to the in-memory ledger types
// cannot change the on-disk schema unnoticed.
const (
	goldenPeerState = `{"now":10800000000000,"records":{"alpha":{"Implicit":0.4,"Explicit":0.75,"Voted":true,"UpdatedAt":7200000000000},"beta":{"Implicit":0.1,"Explicit":0,"Voted":false,"UpdatedAt":10800000000000}},"down_by":{"2ebc080928836bafcc6bbec55f25b0b0":[{"file":"beta","size":77}],"bea0a40d08e5e0c654c5e1bff1eeef47":[{"file":"alpha","size":1048576},{"file":"gamma","size":4096},{"file":"alpha","size":12345}]},"ratings":{"bea0a40d08e5e0c654c5e1bff1eeef47":0.6},"banned":["67bef6a26deeb2399c406f72cdf7fec0"]}`

	goldenShardState = `{"n":6,"k":2,"shard":0,"peers":[{"id":0,"store":{"alpha":{"Implicit":0,"Explicit":0.9,"Voted":true,"UpdatedAt":3600000000000},"beta":{"Implicit":0.35,"Explicit":0,"Voted":false,"UpdatedAt":7200000000000}},"downloads":{"3":[{"file":"alpha","size":1048576},{"file":"delta","size":512}],"5":[{"file":"beta","size":9}]},"user_trust":{"3":0.8},"blacklist":[5]},{"id":1,"downloads":{"4":[{"file":"eps","size":2}]}},{"id":3,"store":{"alpha":{"Implicit":0,"Explicit":0.2,"Voted":true,"UpdatedAt":3600000000000}},"downloads":{"1":[{"file":"alpha","size":300}]},"user_trust":{"0":0.5}},{"id":4,"downloads":{"2":[{"file":"eps","size":1}]},"blacklist":[1]},{"id":5}]}`
)

// TestSnapshotFormatGolden decodes each golden snapshot, re-encodes it,
// restores it and exports it again: every step must give the golden
// bytes.
func TestSnapshotFormatGolden(t *testing.T) {
	same := func(what string, v any, golden string) {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != golden {
			t.Fatalf("%s re-encodes differently:\n got %s\nwant %s", what, b, golden)
		}
	}

	var ps peer.State
	if err := json.Unmarshal([]byte(goldenPeerState), &ps); err != nil {
		t.Fatal(err)
	}
	same("peer.State", &ps, goldenPeerState)
	p := newTestPeer(t, 5)
	if err := p.RestoreState(&ps); err != nil {
		t.Fatal(err)
	}
	same("restored peer.State", p.ExportState(), goldenPeerState)

	var ss core.ShardState
	if err := json.Unmarshal([]byte(goldenShardState), &ss); err != nil {
		t.Fatal(err)
	}
	same("core.ShardState", &ss, goldenShardState)
	s, err := core.NewSharded(ss.N, ss.K, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreShard(ss.Shard, &ss); err != nil {
		t.Fatal(err)
	}
	got, err := s.ExportShardState(ss.Shard)
	if err != nil {
		t.Fatal(err)
	}
	same("restored core.ShardState", got, goldenShardState)
}
