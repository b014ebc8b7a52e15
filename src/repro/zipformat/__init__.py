"""From-scratch ZIP container: the substrate vxZIP builds on."""
