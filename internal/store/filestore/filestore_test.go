package filestore_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/store/filestore"
	"repro/internal/store/storetest"
	"repro/internal/vfs"
)

func TestConformance(t *testing.T) {
	storetest.Run(t, func(dir string) store.Store { return filestore.New(dir, vfs.OS) })
}
