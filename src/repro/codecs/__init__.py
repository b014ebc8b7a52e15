"""Codec plug-ins: native encoders plus archived VXA guest decoders."""
