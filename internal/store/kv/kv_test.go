package kv_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/store/kv"
	"repro/internal/store/storetest"
	"repro/internal/vfs"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func(dir string) store.Store { return kv.New(dir, vfs.OS) })
}
