//go:build !unix

package obs

import "os"

// mapFlightFile maps nothing where the platform has no shared file
// mappings: each record then pwrites its slot.
func mapFlightFile(*os.File, int) ([]byte, error) { return nil, nil }

func unmapFlightFile([]byte) error { return nil }
