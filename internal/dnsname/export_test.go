package dnsname

import "strings"

// Valid reports whether name passes all rules.
func Valid(name string) bool { return Check(name) == OK }

// Labels splits a normalized name into its labels. An empty name yields nil.
func Labels(name string) []string {
	name = strings.TrimSuffix(name, ".")
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}
