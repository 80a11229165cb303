package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"gptpfta/internal/fta"
)

// WriteJSON serialises the configuration. Config's JSON tags are the file
// format: durations are integer nanoseconds, the flag policy is its name.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ReadConfigJSON deserialises one configuration written by WriteJSON.
// Unknown fields and data after the object are errors; absent fields stay
// zero, except that the flag policy defaults to monitor and Kernels to an
// empty map.
func ReadConfigJSON(r io.Reader) (Config, error) {
	c := Config{FlagPolicy: fta.FlagMonitor}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("core: decode config: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return Config{}, errors.New("core: decode config: data after the configuration object")
	}
	if c.Kernels == nil {
		c.Kernels = map[string]string{}
	}
	return c, nil
}

// LoadConfigFile reads a configuration from a JSON file.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ReadConfigJSON(f)
}

// SaveConfigFile writes the configuration to a JSON file.
func (c Config) SaveConfigFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
