(* Pinned answers the workloads check against, generated by
   [bench.exe pin 32] from the code they benchmark:
   - [table5]: lifetime steps, stranded units and schedule digest of the
     exact 2 x B1 search on each Table 5 load;
   - [exact_generated]: digest of exact-table5's generated-batch answers
     per seed;
   - [horizon]: digest of horizon-fleet's lifetimes per seed.
   Seeds outside 1-32 are checked pass against pass and against the
   simulator instead. *)

let table5 = [
  ("CL 250", (1204, 800, "516ac029f4e37dd092847583c930c5c6"));
  ("CL 500", (457, 872, "5a2bb57c302950b0502ac2a007f6e5a1"));
  ("CL alt", (647, 852, "b4a3dc4a0137402e93de2ad8e030ec3f"));
  ("ILs 250", (4080, 581, "c5aaadf1dde97077cbed60cad0b68d11"));
  ("ILs 500", (1050, 826, "87afd024efb48b9a4850598b4d6edf3e"));
  ("ILs alt", (1691, 755, "d930e979d13cc8dd168558012dbbbaaa"));
  ("ILs r1", (2052, 738, "dbe77e6012b6dadcdb9634c756b03556"));
  ("ILs r2", (1454, 799, "5740f26ee7e26844ed0df1a89f4dfb0a"));
  ("ILl 250", (7896, 427, "2412efc6dd70dd7e80905248afc60340"));
  ("ILl 500", (1870, 766, "bbba069659fc387d143616771b9ed119"));
]

let exact_generated = [
  (1, "050b55f96b5b28a4548872c65246a1fb");
  (2, "d966a6cbe0bf8f4c2bd3409cb83fa459");
  (3, "254fc67d00b4b43f962c626b3eabb207");
  (4, "485281eefdb5208fac408751488fa882");
  (5, "0d745250c4d33f990b6cefd8e4182f8f");
  (6, "db11aa512e4734fc60a456a182732313");
  (7, "1780d172e41f5ce6fd2a1bc1969f8885");
  (8, "df325ced8b5e21f8ae29759288a652f6");
  (9, "fd979a4df4d43770cc2bb0b302bfbe4f");
  (10, "a29bbd303a68bf7abbf3d3a8f0021720");
  (11, "49aeb430b2d3f95c8a7b2d9eaeffd641");
  (12, "cef747c6a36ba79d8d42622f3df560c0");
  (13, "29e58af3abc31af1f7f479da0083d910");
  (14, "5e1f210877b15b4e55ca4235776a4ead");
  (15, "ed28cda0fad2cca65a7b9c712f4d478f");
  (16, "9606753151260ec7c4c3d76110261804");
  (17, "9b1501da646d75426ddb0d0e8172ffc8");
  (18, "99e608e745ee8af3875564751307b6af");
  (19, "813a19b268d5c68febb84db7dfd434ed");
  (20, "4878a13f44c1d0c586f1ad7c39766343");
  (21, "0d53a97fd7f545637248e4201996ac11");
  (22, "1ac943fe252ab94e625a28a9ee9190a2");
  (23, "7f337c0cf502cf8c094808b1daf96a6c");
  (24, "8c20ce43e9309f92f959ed0a5e52280f");
  (25, "797d0e5bfc7018da9e7a40f0eaf3625b");
  (26, "c942c46db2c8b67cabf9640f34f2d51f");
  (27, "5df679c36c17afe4ed4d7c9ec0579f6d");
  (28, "76fc36dae46f1f606284634fe7e72a98");
  (29, "7b1c6662b8f7d461b82f76e1f68ba7cf");
  (30, "4566309c1b0558642e6f01d970149f54");
  (31, "3dde337b65ffea1845e8635e723cbe81");
  (32, "ca02e6425ea30e5dba986dadf714feac");
]

let horizon = [
  (1, "fce085de66cbaeca1f364a48e841dbb9");
  (2, "f907882cc20be0f115346647780ab3fa");
  (3, "0c55412caf1e7f1d6c835f26f8996ee8");
  (4, "044e243534c338495bb0e12713b14588");
  (5, "8f48e15bb7a425c3c1fe40895ccaba5f");
  (6, "634f0d6e8bfb41b2c98f5d95b522f773");
  (7, "d96d3516234432629a9e65bbbfe52e3d");
  (8, "9ab58b3f0ac55ce2d7402b450bed7c30");
  (9, "acfa5009a2cd1386aa358ddc9679a8ce");
  (10, "0a51f007de95c1efe45ce9ff390eb7b7");
  (11, "15b4e275904564fd8454126412d9b00b");
  (12, "fa0042161bf8c85dbe758e1e820945f9");
  (13, "252a1552a7f7786db95fe90bcd8c81a3");
  (14, "ad6214ad7054cc02a8f53acd804e9721");
  (15, "25d3153364db676ab133eb339f05c93e");
  (16, "972a9c0430701513700254c94432b57f");
  (17, "0844290d29a74ba1a0b209cfaa4efcce");
  (18, "c30f28cb14c35a3408d8a5c3389b7bc4");
  (19, "d264c7260bc02447fe858b86530110a7");
  (20, "cfbf1a4f68733d49d878323cd5f3aeab");
  (21, "cc88f23054a36cc9cc2cb0eda5c6fee1");
  (22, "bf810ece002ddbeb2fe0cfccb763b6dc");
  (23, "610bf194dd39deccddb17e529535499c");
  (24, "6eeea14456207adaebd16085c6fa04c9");
  (25, "140530a36859a8187444a9d1104577e7");
  (26, "fe82b29cda452fcdbd8301dea7a95666");
  (27, "f007b8bdb98f8cf172228d8e890ce5aa");
  (28, "12f4361900b24afa218b8369826ec27a");
  (29, "0418371344b47f429fbe85adc5632494");
  (30, "e7d285166ce8eee47f20c15b8507e8ad");
  (31, "0ad32cdba251194dabeb743f41360374");
  (32, "5236948c961e76895fe8f8bcb18f4898");
]
