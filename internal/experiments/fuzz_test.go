package experiments

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeConfig checks that the strict wire decoder fails closed on
// arbitrary input for every registered experiment: DecodeConfig never
// panics, a config it accepts passes Validate, and the JSON encoding of an
// accepted config decodes again. The corpus is seeded with every
// experiment's default config; no experiment is ever run.
func FuzzDecodeConfig(f *testing.F) {
	all := All()
	for i, e := range all {
		raw, err := json.Marshal(e.DefaultConfig(1))
		if err != nil {
			f.Fatalf("%s: marshal default config: %v", e.Name(), err)
		}
		f.Add(uint8(i), raw)
	}
	f.Fuzz(func(t *testing.T, idx uint8, raw []byte) {
		e := all[int(idx)%len(all)]
		cfg, err := e.DecodeConfig(raw)
		if err != nil {
			return
		}
		if err := validate(cfg); err != nil {
			t.Fatalf("%s: accepted config fails Validate: %v\ninput: %s", e.Name(), err, raw)
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: accepted config does not encode: %v\ninput: %s", e.Name(), err, raw)
		}
		if _, err := e.DecodeConfig(enc); err != nil {
			t.Fatalf("%s: re-decode of accepted config rejected: %v\ninput: %s\nencoded: %s", e.Name(), err, raw, enc)
		}
	})
}
