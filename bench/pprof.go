package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profile is the part of a pprof profile.proto that layer attribution
// needs. The benchmark decodes the gzipped protobuf itself so that it stays
// within the standard library.
type profile struct {
	strings   []string
	cpuIndex  int                 // index of the "cpu" value in each sample
	samples   []profileSample     // leaf location first
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]profileFunc
}

type profileSample struct {
	locations []uint64
	values    []int64
}

type profileFunc struct {
	name, file int64 // string table indices
}

// parseProfile decodes a gzipped profile as written by runtime/pprof.
func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{cpuIndex: -1, locations: map[uint64][]uint64{}, functions: map[uint64]profileFunc{}}
	var sampleTypes [][]byte
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, b)
		case 2: // sample
			var s profileSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locations = appendVarints(s.locations, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // function
			var id uint64
			var f profileFunc
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for i, st := range sampleTypes {
		var typ uint64
		if err := eachField(st, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if p.str(int64(typ)) == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	return p, nil
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// layerCPU sums each sample's CPU nanoseconds into the layer of the
// innermost gptpfta/internal frame on its stack. The sim package's fabric
// files count as sim_fabric and module packages outside profileLayers as
// other. A stack with no module frame counts as runtime when every frame
// is the Go runtime's, and as other otherwise.
func (p *profile) layerCPU() (map[string]int64, int64) {
	out := map[string]int64{}
	var all int64
	for _, s := range p.samples {
		if p.cpuIndex >= len(s.values) {
			continue
		}
		ns := s.values[p.cpuIndex]
		out[p.layerOf(s)] += ns
		all += ns
	}
	return out, all
}

func (p *profile) layerOf(s profileSample) string {
	runtimeOnly := true
	for _, loc := range s.locations {
		for _, fid := range p.locations[loc] {
			f := p.functions[fid]
			name := p.str(f.name)
			if l, ok := moduleLayer(name, p.str(f.file)); ok {
				return l
			}
			if !isRuntimeFunc(name) {
				runtimeOnly = false
			}
		}
	}
	if runtimeOnly {
		return "runtime"
	}
	return "other"
}

const modulePrefix = "gptpfta/internal/"

// moduleLayer maps a function to its layer when it belongs to a module
// package.
func moduleLayer(fn, file string) (string, bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	pkg := fn[len(modulePrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg == "sim" && strings.HasPrefix(path.Base(file), "fabric") {
		return "sim_fabric", true
	}
	for _, l := range profileLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

// isRuntimeFunc reports whether a frame belongs to the Go runtime. Frames
// without a package path are C or assembly symbols, such as the race
// detector's, and count as runtime too.
func isRuntimeFunc(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || !strings.Contains(fn, ".")
}

// eachField walks the top-level fields of one protobuf message, calling fn
// with the value of varint fields and the bytes of length-delimited ones.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: v for an
// unpacked element, the packed run in b otherwise.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
