package main

import (
	_ "embed"
	"encoding/json"
)

// golden pins the simulated outputs of seed goldenSeed at full size. Only a
// change to simulated behaviour may change this file; a pure speed-up must
// leave every value here as it is. Other seeds and the toy sizes of the
// tests check only invariants: equal outputs across the repetitions of one
// run.
type golden struct {
	Seed int64 `json:"seed"`
	Mesh struct {
		EventsPerRep uint64 `json:"events_per_rep"`
		Failures     int    `json:"failures"`
		Violations   int    `json:"violations"`
	} `json:"mesh"`
	Fabric struct {
		EventsPerRep uint64 `json:"events_per_rep"`
	} `json:"fabric"`
	Campaign struct {
		SweepSHA256 string `json:"sweep_sha256"`
	} `json:"campaign"`
	Served struct {
		// SharedSHA256 maps each shared job seed to the digest of its
		// result envelopes' Summary and Rows.
		SharedSHA256 map[string]string `json:"shared_sha256"`
	} `json:"served"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, err
	}
	return &g, nil
}
