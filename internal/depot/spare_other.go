//go:build !unix

package depot

func peerSilent(any) bool { return true } // no socket peek here: take the spare as it is
