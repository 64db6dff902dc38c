"""garble: perturb voice-command audio so speech recognizers still accept it
while human listeners hear noise."""

__version__ = "0.1.0"
