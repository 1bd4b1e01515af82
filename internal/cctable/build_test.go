package cctable

import (
	"repro/internal/machine"
	"repro/internal/profile"
)

// Build returns a new table built by Rebuild.
func Build(classes []profile.Class, ladder machine.FreqLadder, T float64) (*Table, error) {
	t := new(Table)
	if err := t.Rebuild(classes, ladder, T); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildGranular returns a new table built by RebuildGranular.
func BuildGranular(classes []profile.Class, ladder machine.FreqLadder, T float64, maxCores int) (*Table, error) {
	t := new(Table)
	if err := t.RebuildGranular(classes, ladder, T, maxCores); err != nil {
		return nil, err
	}
	return t, nil
}
