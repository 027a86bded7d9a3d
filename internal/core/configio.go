package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Config serialization: a run's full specification can be saved to JSON
// and reloaded later, so experiments are reproducible from a single file
// (cmd/alloysim's -config / -saveconfig flags). Config is plain data.

// SaveConfig writes the configuration as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}

// LoadConfig parses a configuration saved by SaveConfig and validates it.
func LoadConfig(r io.Reader) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("core: parsing config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Fingerprint returns a short stable hash over the run-defining
// parameters: the saved-config JSON. Run manifests record it so any
// results file can be matched against the exact configuration that
// produced it.
func (c Config) Fingerprint() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Config is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("core: fingerprinting config: %v", err))
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("cfg-%x", sum[:8])
}

// SaveConfigFile writes the configuration to a file path.
func SaveConfigFile(path string, cfg Config) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveConfig(f, cfg); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadConfigFile reads a configuration from a file path.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return LoadConfig(f)
}
