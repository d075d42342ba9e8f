"""evsynth: event-camera stream synthesis from high-FPS frame sequences.

A physics-based reference sensor simulator pairs with a trainable per-pixel
denoise-and-spike network so that noisy renders yield event streams matching
those produced from clean ones.  Import each name from its module.
"""

__version__ = "0.1.0"
