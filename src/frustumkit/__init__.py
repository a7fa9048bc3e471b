"""frustumkit: geometric and numerical core for frustum-based 3D detection.

The package turns 2D image rectangles into depth-bounded frustum proposals,
sizes axis-aligned crop boxes by recall analysis, voxelizes crops for a 3D
convolutional backbone, encodes/decodes oriented-box regression targets, and
evaluates detections — plus a two-stage latency simulator and a synthetic
scene generator that make every experiment reproducible end to end.
"""

__version__ = "0.1.0"
